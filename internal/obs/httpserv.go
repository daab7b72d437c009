package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Introspection is the live inspection endpoint of a monitored run: a
// Sink that feeds its own metrics registry, a flight-recorder ring,
// and a fan-out hub for live subscribers, served over net/http:
//
//	/metrics  — Prometheus text exposition of the registry
//	/events   — live SSE stream, filtered with the hth-trace selector
//	            syntax (?layer=vos&kind=syscall.enter&pid=1&rule=R)
//	/flight   — the flight-recorder contents as JSONL (?gz=1 for gzip)
//	/debug/pprof/ — the standard Go profiler endpoints
//
// The server's lifecycle is independent of any single run: attach the
// same Introspection to successive runs (metrics accumulate, the ring
// keeps rolling) and call Shutdown when the service retires. Event
// delivery is safe under concurrent HTTP readers, and — like Metrics —
// under concurrent publishing runs.
type Introspection struct {
	metrics *Metrics
	flight  *Flight

	mu      sync.Mutex
	subs    map[uint64]chan Event
	nextSub uint64

	srvMu sync.Mutex
	srv   *http.Server
	lis   net.Listener
}

// NewIntrospection builds the endpoint with its own metrics registry
// and a flight ring of DefaultFlightSize, both fed by Event.
func NewIntrospection() *Introspection {
	return &Introspection{
		metrics: NewMetrics(),
		flight:  NewFlight(0),
		subs:    make(map[uint64]chan Event),
	}
}

// Event feeds one event to the registry, the ring, and every live
// subscriber. Slow subscribers drop events rather than stalling the
// simulator.
func (in *Introspection) Event(e Event) {
	in.metrics.Event(e)
	in.flight.Event(e)
	in.mu.Lock()
	drops := 0
	for _, ch := range in.subs {
		select {
		case ch <- e:
		default:
			drops++
		}
	}
	in.mu.Unlock()
	// Mirror the drops into the registry so /metrics surfaces them
	// (hth_sse_dropped_total) — outside in.mu; Metrics has its own lock.
	for i := 0; i < drops; i++ {
		in.metrics.Inc("sse_slow_dropped")
	}
}

// Close is a no-op: the server outlives the run so post-run curls see
// the final state. Call Shutdown to stop serving.
func (in *Introspection) Close() error { return nil }

func (in *Introspection) subscribe() (uint64, chan Event) {
	ch := make(chan Event, 1024)
	in.mu.Lock()
	in.nextSub++
	id := in.nextSub
	in.subs[id] = ch
	in.mu.Unlock()
	return id, ch
}

func (in *Introspection) unsubscribe(id uint64) {
	in.mu.Lock()
	delete(in.subs, id)
	in.mu.Unlock()
}

// Handler returns the endpoint's route mux (exposed for in-process
// tests; Start serves it).
func (in *Introspection) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", in.handleIndex)
	mux.HandleFunc("/metrics", in.handleMetrics)
	mux.HandleFunc("/events", in.handleEvents)
	mux.HandleFunc("/flight", in.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start binds addr (":0" picks a free port; read it back with Addr)
// and serves in a background goroutine until Shutdown.
func (in *Introspection) Start(addr string) error {
	in.srvMu.Lock()
	defer in.srvMu.Unlock()
	if in.srv != nil {
		return fmt.Errorf("obs: introspection server already started on %s", in.lis.Addr())
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: introspection: %w", err)
	}
	srv := &http.Server{Handler: in.Handler()}
	in.srv, in.lis = srv, lis
	go srv.Serve(lis) //nolint:errcheck // Serve returns on Shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (in *Introspection) Addr() string {
	in.srvMu.Lock()
	defer in.srvMu.Unlock()
	if in.lis == nil {
		return ""
	}
	return in.lis.Addr().String()
}

// Shutdown stops the server, closing live /events streams. The sink
// remains usable (and Start may be called again).
func (in *Introspection) Shutdown() error {
	in.srvMu.Lock()
	srv := in.srv
	in.srv, in.lis = nil, nil
	in.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

func (in *Introspection) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `hth introspection endpoints:
  /metrics        Prometheus text exposition
  /events         live SSE event stream (?layer=&kind=&pid=&rule=)
  /flight         flight-recorder ring as JSONL (?gz=1 for gzip)
  /debug/pprof/   Go profiler
`)
}

func (in *Introspection) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, in.metrics.Snapshot()) //nolint:errcheck // client gone
}

func (in *Introspection) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("gz") != "" {
		w.Header().Set("Content-Type", "application/gzip")
		in.flight.WriteGzip(w) //nolint:errcheck // client gone
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	in.flight.WriteJSONL(w) //nolint:errcheck // client gone
}

// handleEvents streams matching events as server-sent events: one
// `data:` line per event carrying the JSONL wire form. The stream
// runs until the client disconnects or the server shuts down.
func (in *Introspection) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter, err := ParseFilter(q.Get("layer"), q.Get("kind"), q.Get("pid"), q.Get("rule"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	id, ch := in.subscribe()
	defer in.unsubscribe(id)
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-ch:
			if !filter.Match(e) {
				continue
			}
			b, err := json.Marshal(wireEvent{
				Seq: e.Seq, Time: e.Time,
				Layer: e.Layer.String(), Kind: e.Kind.String(),
				PID: e.PID, Num: e.Num, Num2: e.Num2, Str: e.Str, Str2: e.Str2,
			})
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
