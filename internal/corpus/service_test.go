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
// (no chaos plan, a queue deep enough to admit them all) must produce
// a sweep signature element-wise identical to the batch RunAll sweep.
// The service's queueing, dispatch, and budget clamps must be
// invisible to detection. The corpus goes through one service twice:
// the first pass's settled jobs release their guest and shadow pages
// to the free lists, so the second pass runs mostly on recycled pages,
// and a recycled page that kept a stale byte or tag, or aliased a live
// one, would move a signature.
func TestServiceSweepSignatureIdentity(t *testing.T) {
	scs := All()
	if len(scs) == 0 {
		t.Fatal("empty corpus")
	}
	batch := SweepSignature(RunAll(scs, 0))
	for pass, outs := range serviceSweep(t, scs, 2) {
		service := SweepSignature(outs)
		for i := range batch {
			if service[i] != batch[i] {
				t.Errorf("pass %d: signature drift through the service:\n  batch:   %s\n  service: %s",
					pass+1, batch[i], service[i])
			}
		}
	}
}

// serviceSweep submits every scenario to one 8-worker hth.Service
// passes times over, each pass after the last has
// settled, drains the service, and returns each pass's outcomes in
// scenario order. A job that does not finish "done" carries its
// status as the outcome's Err.
func serviceSweep(t *testing.T, scs []*Scenario, passes int) [][]RunOutcome {
	t.Helper()
	// Generous queue so no scenario is rejected: identity is
	// the point here, load behaviour is pinned elsewhere.
	svc := hth.NewService(hth.ServiceConfig{
		Workers: 8, QueueDepth: len(scs),
	})
	all := make([][]RunOutcome, passes)
	for pass := range all {
		all[pass] = submitAll(t, svc, scs)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return all
}

// submitAll submits every scenario to svc and waits for all of them.
func submitAll(t *testing.T, svc *hth.Service, scs []*Scenario) []RunOutcome {
	t.Helper()
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
	return outs
}
