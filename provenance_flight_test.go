package hth_test

import (
	"bytes"
	"flag"
	"io"
	"net/http"
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

// TestIntrospectionEndToEnd is the live-curl acceptance check: start
// an introspection server on an ephemeral port, attach it to a trojan
// run as an observer, and fetch /metrics and /flight from the
// still-serving endpoint.
func TestIntrospectionEndToEnd(t *testing.T) {
	intro := hth.NewIntrospection()
	if err := intro.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer intro.Shutdown()
	cfg := observed(intro)
	cfg.Provenance = true
	if _, err := trojanSystem().Run(cfg, hth.RunSpec{Path: "/bin/trojan"}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + intro.Addr()

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{"hth_syscalls_total", "hth_warnings_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	if err := obs.ReadJSONL(resp.Body, func(hth.Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("/flight replayed no events after a run")
	}
}
