package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hth "repro"
)

const (
	// clients is the closed-loop client count and the open loop's
	// connection count: nproc on the 2-CPU host the bounds were set on.
	clients = 2
	// jobTimeout bounds one job from submission to verdict; a job not
	// done by then is lost, which is a failure.
	jobTimeout = 60 * time.Second
	// sampleEvery is the open loop's backlog sampling period.
	sampleEvery = 100 * time.Millisecond
)

// openRates are upload-open's Poisson arrival rates R1 < R2 < R3 in
// jobs/s: 8%, 16% and 24% of the ~5,000 jobs/s the upload mix reached
// closed-loop over HTTP on the reference host. Higher rates drew 429s
// while the GC marked the service's kept results (README.md). They are
// fixed, never derived at run time, so a slower build meets the same
// offered load.
var openRates = [phases]float64{400, 800, 1200}

// sloP99 is the open loop's latency limit on each phase's p99.
const sloP99 = 50 * time.Millisecond

// jobRecord is one finished (or failed) submission.
type jobRecord struct {
	in    *input
	h     *hth.JobHandle
	res   *hth.JobResult
	err   error
	start time.Time // submit call (closed) or due time (open)
	end   time.Time // verdict seen
	call  time.Duration
	phase int // -1 during warm-up
}

// phases is how many parts the window is cut into: the open loop's
// three rates, or three equal thirds of a closed-loop window.
const phases = 3

// acc accumulates one run's records. The window is [t0, t1).
type acc struct {
	t0, t1 time.Time
	tr     *tracer // nil unless traced

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	done      int               // correct completions inside the window
	steps     uint64            // their guest instructions
	lat       [phases][]float64 // e2e ms by phase
	phaseN    [phases]int
	phaseFail [phases]int

	// Counter sums over the done jobs.
	mix                  hth.TierMix
	sideExits, gateSkips uint64
	unions, unionHits    uint64
	events, warnings     uint64
}

func newAcc(traced bool) *acc {
	a := &acc{}
	if traced {
		a.tr = newTracer()
	}
	return a
}

func (a *acc) record(j jobRecord) {
	err := j.err
	if err == nil {
		err = j.in.check(j.res)
	}
	in := j.phase >= 0 && !j.end.Before(a.t0) && j.end.Before(a.t1)
	if err == nil && j.phase >= 0 && a.tr != nil {
		a.tr.add(j)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if j.phase >= 0 {
		a.phaseN[j.phase]++
	}
	if err != nil {
		a.failed++
		if j.phase >= 0 {
			a.phaseFail[j.phase]++
		}
		if len(a.failures) < 10 {
			a.failures = append(a.failures, err.Error())
		}
		return
	}
	if j.phase < 0 {
		return
	}
	a.lat[j.phase] = append(a.lat[j.phase], ms(j.end.Sub(j.start)))
	if !in {
		return
	}
	a.done++
	a.steps += j.res.TotalSteps
	if m := j.res.TierMix; m != nil {
		a.mix.Blocks += m.Blocks
		a.mix.Interp += m.Interp
		a.mix.Summary += m.Summary
		a.mix.Trace += m.Trace
		a.mix.Clean += m.Clean
		a.mix.Reinstrumented += m.Reinstrumented
	}
	st := j.res.Raw.Stats
	a.sideExits += st.TraceSideExits
	a.gateSkips += st.GateSkips
	a.unions += st.TaintUnions
	a.unionHits += st.TaintUnionHits
	a.events += uint64(len(j.res.Raw.Events))
	a.warnings += uint64(len(j.res.Warnings))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// sampler reads the Go runtime's allocation and GC CPU totals at both
// edges of the window and, for the open loop, the backlog every
// sampleEvery.
type sampler struct {
	done    chan struct{}
	at      [2][]metrics.Sample
	backlog []backlogSample
}

type backlogSample struct {
	t time.Time
	n int64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func startSampler(t0, t1 time.Time, outstanding func() int64) *sampler {
	s := &sampler{done: make(chan struct{})}
	read := func() []metrics.Sample {
		ss := make([]metrics.Sample, len(runtimeMetrics))
		for i, n := range runtimeMetrics {
			ss[i].Name = n
		}
		metrics.Read(ss)
		return ss
	}
	go func() {
		defer close(s.done)
		time.Sleep(time.Until(t0))
		s.at[0] = read()
		if outstanding != nil {
			tick := time.NewTicker(sampleEvery)
			defer tick.Stop()
			for now := time.Now(); now.Before(t1); now = <-tick.C {
				s.backlog = append(s.backlog, backlogSample{now, outstanding()})
			}
		}
		time.Sleep(time.Until(t1))
		s.at[1] = read()
	}()
	return s
}

// wait returns once the sampler has read the window's closing edge.
func (s *sampler) wait() { <-s.done }

// delta is the change of runtime metric i across the window.
func (s *sampler) delta(i int) float64 {
	v := func(x metrics.Sample) float64 {
		if x.Value.Kind() == metrics.KindUint64 {
			return float64(x.Value.Uint64())
		}
		return x.Value.Float64()
	}
	return v(s.at[1][i]) - v(s.at[0][i])
}

// driveClosed runs the closed loop: each client submits, waits for the
// verdict, and submits again, until the window ends.
func driveClosed(svc *hth.Service, set *inputSet, a *acc, warm, window time.Duration) *sampler {
	a.t0 = time.Now().Add(warm)
	a.t1 = a.t0.Add(window)
	smp := startSampler(a.t0, a.t1, nil)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := time.Now()
				if !t.Before(a.t1) {
					return
				}
				j := jobRecord{in: set.inputs[set.deck.next()], start: t, phase: -1}
				if !t.Before(a.t0) {
					j.phase = int(phases * t.Sub(a.t0) / window)
				}
				j.h, j.err = svc.Submit(j.in.spec)
				j.call = time.Since(t)
				if j.err == nil {
					await(&j)
				} else {
					j.end = time.Now()
				}
				a.record(j)
			}
		}()
	}
	wg.Wait()
	smp.wait()
	return smp
}

// arrival is one scheduled upload: its offset from the start of the
// run, the input it sends and its phase (-1 warm-up, then R1..R3).
type arrival struct {
	at    time.Duration
	in    int
	phase int
}

// schedule lays out the open loop's arrivals: a warm-up at R2, then
// one third of the window at each rate. Within a phase the arrivals
// are a Poisson process conditioned on its expected count (sorted
// uniform offsets), so every seed offers exactly the same load.
func schedule(seed uint64, d *deck, warm, window time.Duration) []arrival {
	rng := newRNG(seed, "arrivals")
	var out []arrival
	add := func(off, dur time.Duration, rate float64, phase int) {
		ats := make([]time.Duration, int(math.Round(rate*dur.Seconds())))
		for i := range ats {
			ats[i] = off + time.Duration(rng.Float64()*float64(dur))
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		for _, at := range ats {
			out = append(out, arrival{at: at, in: d.next(), phase: phase})
		}
	}
	add(0, warm, openRates[1], -1)
	for i, r := range openRates {
		add(warm+time.Duration(i)*window/phases, window/phases, r, i)
	}
	return out
}

// driveOpen runs the open loop: one generator goroutine releases each
// arrival at its due time to one of the keep-alive connections, which
// POST the pre-encoded body to the service's HTTP handler and hand the
// admitted job to a waiter goroutine that records it when its Done
// channel closes. Latency runs from the due time, so a stalled
// connection or generator delays later requests' clocks too. It
// returns the sampler and the generator's lateness (ms) per arrival.
func driveOpen(svc *hth.Service, set *inputSet, a *acc, seed uint64, warm, window time.Duration) (*sampler, []float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: svc.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	url := "http://" + ln.Addr().String() + "/jobs"

	sched := schedule(seed, set.deck, warm, window)
	start := time.Now()
	a.t0 = start.Add(warm)
	a.t1 = a.t0.Add(window)
	var dispatched, settled atomic.Int64
	smp := startSampler(a.t0, a.t1, func() int64 { return dispatched.Load() - settled.Load() })

	// Sized to the number of arrivals: the generator never blocks on a
	// send, so a stalled connection cannot delay the schedule.
	work := make(chan jobRecord, len(sched))
	var wg, waiters sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cl := &http.Client{Transport: tr, Timeout: jobTimeout}
			for j := range work {
				t := time.Now()
				j.h, j.err = post(cl, url, j.in.body, svc)
				j.call = time.Since(t)
				if j.err != nil {
					j.end = time.Now()
					a.record(j)
					settled.Add(1)
					continue
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					await(&j)
					a.record(j)
					settled.Add(1)
				}()
			}
		}()
	}

	lag := make([]float64, 0, len(sched))
	for _, ar := range sched {
		due := start.Add(ar.at)
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		dispatched.Add(1)
		work <- jobRecord{in: set.inputs[ar.in], start: due, phase: ar.phase}
	}
	close(work)
	wg.Wait()
	waiters.Wait()
	smp.wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	<-served
	return smp, lag, err
}

// post submits one upload and resolves its handle.
func post(cl *http.Client, url string, body []byte, svc *hth.Service) (*hth.JobHandle, error) {
	resp, err := cl.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("POST /jobs: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("POST /jobs: read reply: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &ack); err != nil {
		return nil, fmt.Errorf("POST /jobs: bad reply: %w", err)
	}
	h := svc.Lookup(ack.ID)
	if h == nil {
		return nil, fmt.Errorf("POST /jobs: accepted job %s is unknown to the service", ack.ID)
	}
	return h, nil
}

// await waits for an admitted job's verdict; a job with none after
// jobTimeout is lost.
func await(j *jobRecord) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	j.res, j.err = j.h.Wait(ctx)
	j.end = time.Now()
	if j.err != nil {
		j.err = fmt.Errorf("%s: job %s lost: %w", j.in.name, j.h.ID(), j.err)
	}
}

// backlogGrows reports whether the outstanding-job count rose over a
// phase: the median of its second half exceeds twice the first half's
// plus ten jobs. Medians keep one GC pause's spike from counting.
func backlogGrows(s []backlogSample, from, to time.Time) bool {
	mid := from.Add(to.Sub(from) / 2)
	var half [2][]float64
	for _, b := range s {
		if b.t.Before(from) || !b.t.Before(to) {
			continue
		}
		h := 0
		if !b.t.Before(mid) {
			h = 1
		}
		half[h] = append(half[h], float64(b.n))
	}
	if len(half[0]) == 0 || len(half[1]) == 0 {
		return false
	}
	return quantile(half[1], 0.5) > 2*quantile(half[0], 0.5)+10
}
