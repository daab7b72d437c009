package hth

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Handler exposes the service over HTTP/JSON:
//
//	POST /jobs            submit a JobSpec; 202 with the job id.
//	POST /jobs?wait=1     block until the job terminates; the JobResult.
//	POST /jobs?stream=1   JSONL stream: accepted line, live updates,
//	                      terminal result line.
//	GET  /jobs/{id}       poll a job: status plus the result once done.
//	GET  /jobs/{id}/trace the job's lifecycle span trace as Chrome
//	                      trace_event JSON (open in Perfetto):
//	                      submit→queue→exec→verdict with runCore phase
//	                      and per-tier time children under each exec.
//	GET  /healthz         pool health snapshot (503 while draining),
//	                      including per-stage p50/p95/p99 latency
//	                      rollups and the deadline-burn p95 gauge.
//	GET  /metrics         Prometheus text exposition of the registry.
//
// Failure mapping: a malformed spec is 400 with the typed JobError, a
// full queue is 429 with a Retry-After header, a draining
// service is 503. A submitted job can never be lost: every admitted
// id resolves to a terminal result (or a structured abort) until
// evicted by ServiceConfig.KeepResults.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// httpError is the wire form of a rejection.
type httpError struct {
	Error *JobError `json:"error"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{
			Error: &JobError{Code: JobBadSpec, Msg: "invalid JSON: " + err.Error()},
		})
		return
	}
	stream := r.URL.Query().Get("stream") == "1"
	if stream {
		spec.Stream = true
	}
	h, err := s.Submit(spec)
	if err != nil {
		switch e := err.(type) {
		case *JobError:
			writeJSON(w, http.StatusBadRequest, httpError{Error: e})
		case *OverloadError:
			secs := int(e.RetryAfter / time.Second)
			if e.RetryAfter%time.Second != 0 {
				secs++ // Retry-After is whole seconds; round up
			}
			w.Header().Set("Retry-After", fmt.Sprint(secs))
			writeJSON(w, http.StatusTooManyRequests, httpError{
				Error: &JobError{Code: "overloaded", Msg: e.Error()},
			})
		default: // ErrDraining
			writeJSON(w, http.StatusServiceUnavailable, httpError{
				Error: &JobError{Code: "draining", Msg: err.Error()},
			})
		}
		return
	}
	switch {
	case stream:
		s.streamJob(w, r, h)
	case r.URL.Query().Get("wait") == "1":
		res, err := h.Wait(r.Context())
		if err != nil { // client went away; the job still terminates
			writeJSON(w, http.StatusRequestTimeout, httpError{
				Error: &JobError{Code: "client-gone", Msg: err.Error()},
			})
			return
		}
		writeJSON(w, http.StatusOK, res)
	default:
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id": h.ID(), "status": h.Status(),
		})
	}
}

// streamJob writes the job's life as JSONL: one accepted record, each
// live update as it arrives, and the terminal result. A reader that
// stalls loses updates (never the result) — the worker is never
// blocked by a slow tenant.
func (s *Service) streamJob(w http.ResponseWriter, r *http.Request, h *JobHandle) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	enc.Encode(map[string]any{"event": "accepted", "id": h.ID()})
	flush()
	updates := h.Updates() // non-nil: stream=1 set spec.Stream
	for updates != nil {
		select {
		case u, ok := <-updates:
			if !ok {
				updates = nil
				continue
			}
			enc.Encode(u)
			flush()
		case <-r.Context().Done():
			return // job keeps running; result stays pollable
		}
	}
	select {
	case <-h.Done():
	case <-r.Context().Done():
		return
	}
	enc.Encode(map[string]any{"event": "result", "result": h.Result()})
	flush()
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	h := s.Lookup(r.PathValue("id"))
	if h == nil {
		writeJSON(w, http.StatusNotFound, httpError{
			Error: &JobError{Code: "unknown-job", Msg: "no such job (or evicted)"},
		})
		return
	}
	resp := map[string]any{"id": h.ID(), "status": h.Status()}
	if res := h.Result(); res != nil {
		resp["result"] = res
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrace serves a job's span trace in Chrome trace_event JSON —
// drop the response straight into Perfetto or chrome://tracing.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	h := s.Lookup(r.PathValue("id"))
	if h == nil || h.Spans() == nil {
		writeJSON(w, http.StatusNotFound, httpError{
			Error: &JobError{Code: "unknown-job", Msg: "no such job (or evicted)"},
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	h.Spans().WriteChromeTrace(w)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	hs := s.Health()
	code := http.StatusOK
	if hs.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, hs)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.metrics.Snapshot())
}
