// Command hth-serve runs the HTH analysis service: a long-lived
// HTTP/JSON front over one pool of monitored-run workers, with a
// bounded queue (a full one answers 429 with Retry-After) and a graceful
// drain on SIGINT/SIGTERM (in-flight jobs finish; queued jobs come
// back as structured aborts — no job is ever lost).
//
//	hth-serve [-addr 127.0.0.1:8077] [-workers 4] [-queue 64]
//	          [-drain 30s]
//	          [-chaos-seed N -chaos-rate P]   # fault-storm soak mode
//
//	curl -s localhost:8077/healthz                  # incl. latency_ms rollups
//	curl -s -X POST localhost:8077/jobs?wait=1 -d @job.json
//	curl -s localhost:8077/jobs/j000001/trace > trace.json   # open in Perfetto
//	curl -s localhost:8077/metrics | grep hth_jobs
//	curl -s localhost:8077/metrics | grep hth_job_exec_seconds   # latency histograms
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	hth "repro"
	"repro/internal/chaos"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig, os.Stderr))
}

// run serves the flags in args until a signal arrives on stop, then
// drains. It logs to logw and returns the process exit code: 0 after a
// clean drain, 1 when serving or the drain fails, 2 on a bad flag.
func run(args []string, stop <-chan os.Signal, logw io.Writer) int {
	fs := flag.NewFlagSet("hth-serve", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		addr      = fs.String("addr", "127.0.0.1:8077", "listen address (port 0 picks a free port; the log names it)")
		workers   = fs.Int("workers", 4, "worker goroutines; each job runs on the first free one")
		queue     = fs.Int("queue", 64, "queued jobs before backpressure (429)")
		drain     = fs.Duration("drain", 30*time.Second, "graceful drain budget on SIGINT/SIGTERM")
		chaosSeed = fs.Uint64("chaos-seed", 0, "service fault-injection seed (0 = chaos off)")
		chaosRate = fs.Float64("chaos-rate", 0.05, "service fault probability per decision point")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	lg := log.New(logw, "", log.LstdFlags)

	cfg := hth.ServiceConfig{Workers: *workers, QueueDepth: *queue}
	if *chaosSeed != 0 {
		cfg.Chaos = &chaos.Plan{Seed: *chaosSeed, Rate: *chaosRate}
		lg.Printf("chaos armed: seed=%#x rate=%g (service-level faults only)", *chaosSeed, *chaosRate)
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		lg.Printf("listen: %v", err)
		return 1
	}
	svc := hth.NewService(cfg)

	srv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	lg.Printf("hth-serve listening on %s (%d workers, queue %d)",
		lis.Addr(), *workers, *queue)

	select {
	case err := <-errc:
		lg.Printf("serve: %v", err)
		return 1
	case s := <-stop:
		lg.Printf("%s: draining (budget %s)...", s, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting HTTP first, then drain the pool: in-flight jobs
	// finish, queued jobs terminate as structured aborts.
	shutdownErr := srv.Shutdown(ctx)
	if err := svc.Drain(ctx); err != nil {
		lg.Printf("drain incomplete: %v", err)
		return 1
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		lg.Printf("http shutdown: %v", shutdownErr)
	}
	lg.Printf("drained clean; bye")
	return 0
}
