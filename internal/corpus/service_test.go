package corpus

import (
	"context"
	"fmt"
	"testing"
	"time"

	hth "repro"
)

// TestServiceSweepSignatureIdentity is the service half of the
// identity gate: every corpus scenario submitted through hth.Service
// (no chaos plan, quiet shards → no shedding) must produce a sweep
// signature element-wise identical to the batch RunAll sweep. The
// service's queueing, sharding, and budget clamps must be invisible
// to detection.
func TestServiceSweepSignatureIdentity(t *testing.T) {
	scs := All()
	if len(scs) == 0 {
		t.Fatal("empty corpus")
	}
	batch := SweepSignature(RunAll(scs, 0))
	service := SweepSignature(serviceSweep(t, scs))
	for i := range batch {
		if service[i] != batch[i] {
			t.Errorf("signature drift through the service:\n  batch:   %s\n  service: %s",
				batch[i], service[i])
		}
	}
}

// serviceSweep submits every scenario to a 4-shard × 2-worker
// hth.Service, waits for all of them, drains the service, and returns
// the outcomes in scenario order. A job that does not finish "done"
// carries its status as the outcome's Err.
func serviceSweep(t *testing.T, scs []*Scenario) []RunOutcome {
	t.Helper()
	// Generous queue so no scenario is shed or rejected: identity is
	// the point here, load behaviour is pinned elsewhere.
	svc := hth.NewService(hth.ServiceConfig{
		Shards: 4, WorkersPerShard: 2, QueueDepth: len(scs),
	})
	handles := make([]*hth.JobHandle, len(scs))
	for i, sc := range scs {
		h, err := svc.Submit(hth.JobSpec{
			Tenant: sc.Table,
			Setup:  sc.Setup,
			Tweak:  sc.Tweak,
			Path:   sc.Spec.Path,
			Argv:   sc.Spec.Argv,
			Env:    sc.Spec.Env,
			Stdin:  sc.Spec.Stdin,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", sc.Name, err)
		}
		handles[i] = h
	}
	outs := make([]RunOutcome, len(scs))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for i, h := range handles {
		res, err := h.Wait(ctx)
		if err != nil {
			t.Fatalf("scenario %s never terminated: %v", scs[i].Name, err)
		}
		outs[i] = RunOutcome{Scenario: scs[i]}
		if res.Status != "done" {
			outs[i].Err = fmt.Errorf("service status %q: %v", res.Status, res.Error)
			continue
		}
		outs[i].Result = res.Raw
		outs[i].Problems = scs[i].Check(res.Raw)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return outs
}
