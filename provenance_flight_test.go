package hth_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	hth "repro"
	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestProvenanceChainGolden pins one causal chain byte-for-byte: the
// trojan run is deterministic, so the rendered Report — warning plus
// its indented provenance chains — must be stable across refactors of
// the recorder. Regenerate deliberately with -update.
func TestProvenanceChainGolden(t *testing.T) {
	cfg := hth.DefaultConfig()
	cfg.Provenance = true
	res, err := trojanSystem().Run(cfg, hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("trojan run produced no warnings")
	}
	for _, w := range res.Warnings {
		if len(w.Chain) == 0 {
			t.Fatalf("warning %q has no provenance chain", w.Rule)
		}
	}
	got := []byte(res.Report())
	golden := filepath.Join("testdata", "provenance_chain.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("provenance report diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestProvenanceOffReportUnchanged guards the default path: with
// provenance off the warnings carry no chains and Report stays
// byte-identical to the pre-provenance format.
func TestProvenanceOffReportUnchanged(t *testing.T) {
	res, err := trojanSystem().Run(hth.DefaultConfig(), hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Provenance != nil {
		t.Error("Result.Provenance set on a provenance-off run")
	}
	for _, w := range res.Warnings {
		if w.Chain != nil {
			t.Errorf("provenance-off warning %q carries chain %v", w.Rule, w.Chain)
		}
	}
	if strings.Contains(res.Report(), "chain:") {
		t.Errorf("provenance-off Report mentions chains:\n%s", res.Report())
	}
}

// TestFlightDumpOnWarning: a rule fire must trigger the automatic
// flight dump, and the gzipped dump must replay to the last
// obs.DefaultFlightSize events a collecting observer saw on the same
// bus.
func TestFlightDumpOnWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	var c obs.Collector
	cfg := observed(&c)
	cfg.FlightPath = path
	res, err := trojanSystem().Run(cfg, hth.RunSpec{Path: "/bin/trojan"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("trojan run produced no warnings; dump trigger untested")
	}
	want := c.Events[max(0, len(c.Events)-obs.DefaultFlightSize):]
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	defer f.Close()
	r, err := obs.MaybeGzip(f)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []hth.Event
	if err := obs.ReadJSONL(r, func(e hth.Event) error {
		replayed = append(replayed, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) == 0 || len(replayed) != len(want) {
		t.Fatalf("dump replayed %d events, want the observer's last %d", len(replayed), len(want))
	}
	for i := range replayed {
		if replayed[i] != want[i] {
			t.Fatalf("dump event %d = %+v, observer saw %+v", i, replayed[i], want[i])
		}
	}
}

// TestFlightNotDumpedOnCleanRun: a run with no warnings, faults, or
// chaos must not leave a dump behind.
func TestFlightNotDumpedOnCleanRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	cfg := hth.DefaultConfig()
	cfg.FlightPath = path
	res, err := trojanSystem().Run(cfg, hth.RunSpec{Path: "/bin/ls"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 0 {
		t.Fatalf("clean run warned: %v", res.Warnings)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("clean run dumped the flight recorder (stat err = %v)", err)
	}
}

// TestMetricsExpositionAfterRun: a metrics registry attached to a
// real trojan run must expose its syscall and warning families through
// WritePrometheus, the page the service serves on /metrics.
func TestMetricsExpositionAfterRun(t *testing.T) {
	m := hth.NewMetrics()
	cfg := observed(m)
	cfg.Provenance = true
	if _, err := trojanSystem().Run(cfg, hth.RunSpec{Path: "/bin/trojan"}); err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if err := obs.WritePrometheus(&page, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hth_syscalls_total{", "hth_warnings_total{"} {
		if !strings.Contains(page.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, page.String())
		}
	}
}
