package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	hth "repro"
	"repro/internal/corpus"
	"repro/internal/obs"
)

// serveReport is the "serve" section of BENCH_<date>.json: service
// throughput over the full corpus plus the identity verdict.
type serveReport struct {
	Jobs        int     `json:"jobs"`
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers_per_shard"`
	WallNS      int64   `json:"wall_ns"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Mismatches  int     `json:"signature_mismatches"`
	BatchWallNS int64   `json:"batch_wall_ns"`

	// TierMix is the fleet-wide execution-tier mix over all jobs — the
	// same counters batch mode reports per perf row, so serve-vs-batch
	// tier behaviour is comparable inside one BENCH_<date>.json.
	TierMix hth.TierMix `json:"tier_mix"`

	// Latency is the per-stage p50/p95/p99 rollup (milliseconds) over
	// all jobs, straight from the service's span-fed histograms.
	Latency map[string]obs.LatencyRollup `json:"latency_ms,omitempty"`
}

// runServe benchmarks the analysis service against the batch sweep:
// every corpus scenario is submitted as a service job, the sweep
// signatures must match the direct RunAll element-wise (the service
// machinery must be invisible to detection), and the achieved jobs/s
// lands in the dated benchmark JSON under "serve".
func runServe(parallel int, jsonOut bool) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	scs := corpus.All()
	fmt.Printf("serve bench: %d corpus jobs through hth.Service\n", len(scs))

	batchStart := time.Now()
	batch := corpus.SweepSignature(corpus.RunAll(scs, parallel))
	batchWall := time.Since(batchStart)

	shards := 4
	workers := (parallel + shards - 1) / shards
	svc := hth.NewService(hth.ServiceConfig{
		Shards: shards, WorkersPerShard: workers, QueueDepth: len(scs),
	})
	start := time.Now()
	handles := make([]*hth.JobHandle, len(scs))
	for i, sc := range scs {
		h, err := svc.Submit(hth.JobSpec{
			Tenant: sc.Table,
			Setup:  sc.Setup, Tweak: sc.Tweak,
			Path: sc.Spec.Path, Argv: sc.Spec.Argv,
			Env: sc.Spec.Env, Stdin: sc.Spec.Stdin,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hth-bench: -serve: submit %s: %v\n", sc.Name, err)
			return 1
		}
		handles[i] = h
	}
	outs := make([]corpus.RunOutcome, len(scs))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hth-bench: -serve: job %s lost: %v\n", h.ID(), err)
			return 1
		}
		outs[i] = corpus.RunOutcome{Scenario: scs[i]}
		if res.Status != "done" {
			outs[i].Err = fmt.Errorf("service status %q: %v", res.Status, res.Error)
			continue
		}
		outs[i].Result = res.Raw
		outs[i].Problems = scs[i].Check(res.Raw)
	}
	wall := time.Since(start)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "hth-bench: -serve: drain: %v\n", err)
		return 1
	}

	mismatches := 0
	service := corpus.SweepSignature(outs)
	for i := range batch {
		if service[i] != batch[i] {
			mismatches++
			fmt.Printf("SIGNATURE DRIFT\n  batch:   %s\n  service: %s\n", batch[i], service[i])
		}
	}
	health := svc.Health()
	rep := serveReport{
		Jobs: len(scs), Shards: shards, Workers: workers,
		WallNS: wall.Nanoseconds(), JobsPerSec: float64(len(scs)) / wall.Seconds(),
		Mismatches: mismatches, BatchWallNS: batchWall.Nanoseconds(),
		TierMix: health.TierMix,
		Latency: health.Latency,
	}
	fmt.Printf("serve: %d jobs in %s (%.1f jobs/s, batch sweep %s); signature mismatches: %d\n",
		rep.Jobs, wall.Round(time.Millisecond), rep.JobsPerSec,
		batchWall.Round(time.Millisecond), mismatches)
	fmt.Printf("serve tier mix: %d blocks (interp %d, trace %d, clean %d; reinstrumented %d)\n",
		rep.TierMix.Blocks, rep.TierMix.Interp,
		rep.TierMix.Trace, rep.TierMix.Clean, rep.TierMix.Reinstrumented)
	for _, stage := range []string{"queue", "exec", "e2e"} {
		if lr, ok := rep.Latency[stage]; ok {
			fmt.Printf("serve latency %-5s p50 %.2fms  p95 %.2fms  p99 %.2fms  (n=%d)\n",
				stage, lr.P50MS, lr.P95MS, lr.P99MS, lr.Count)
		}
	}

	if jsonOut {
		path := fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
		if err := writeServeJSON(path, rep); err != nil {
			fmt.Fprintf(os.Stderr, "hth-bench: -serve: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s (serve section)\n", path)
	}
	if mismatches > 0 {
		return 1
	}
	return 0
}

// writeServeJSON merges the "serve" section into the dated benchmark
// report, preserving every other top-level key (perf, metrics, ...).
func writeServeJSON(path string, rep serveReport) error {
	doc := map[string]any{}
	if old, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(old, &doc)
	}
	if _, ok := doc["date"]; !ok {
		doc["date"] = time.Now().Format("2006-01-02")
	}
	doc["serve"] = rep
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
