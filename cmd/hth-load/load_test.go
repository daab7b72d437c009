package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// quickRun shrinks a run to a few hundred milliseconds: a 150 ms
// window, and kernels at 2% of their instruction budgets.
func quickRun(t *testing.T, w string, traced bool) runConfig {
	return runConfig{workload: w, seed: 7, window: 150 * time.Millisecond,
		traced: traced, chromeDir: t.TempDir(), instrScale: 0.02}
}

// benchmarkFile is the slice of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"cmd/hth-load"}) {
		t.Errorf("paths %v", bf.Paths)
	}
	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, workloads) {
		t.Errorf("workloads %v, code has %v", got, workloads)
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v\ncode has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v\ncode has %v", layer, perLayer)
	}
}

// TestWorkloads runs every workload's traced pass briefly: every job
// must check, and every catalogued metric must come out finite.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			r, err := runOnce(quickRun(t, w, true))
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.FailedRatio != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d (ratio %v): %v", r.Attempted, r.Failed, r.FailedRatio, r.Failures)
			}
			for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				v, ok := r.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %v (present %v)", d.name, v, ok)
				}
			}
			if math.Abs(r.ExecCoverage-1) > 0.05 {
				t.Errorf("layer self times cover %.3f of exec, want 1±0.05", r.ExecCoverage)
			}
			if r.ChromeTrace == "" {
				t.Error("no Chrome trace of the slowest jobs")
			}
		})
	}
}

// TestResultLine checks the contract of the last output line.
func TestResultLine(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out, errb bytes.Buffer
		if code := execute([]string{"corpus-closed"}, 1, quickRun(t, "", traced), "", &out, &errb); code != 0 {
			t.Fatalf("traced=%v: exit %d: %s", traced, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		want := catalogue(traced)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(want) {
			t.Fatalf("traced=%v: %+v", traced, res)
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("traced=%v: %s = %+v, want unit %s", traced, d.name, m, d.unit)
			}
		}
	}
}

// fingerprint renders everything a seed generates for a workload.
func fingerprint(t *testing.T, w string, seed uint64) []byte {
	set, err := generate(w, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var doc []any
	for _, in := range set.inputs {
		s := in.spec
		doc = append(doc, []any{in.name, in.class, s.Tenant, s.Programs, s.Binaries, s.Files, s.Path, s.Argv, s.Env, s.Stdin, in.body})
	}
	if w == "upload-open" {
		doc = append(doc, schedule(seed, set.deck, time.Second, 3*time.Second))
	}
	for i := 0; i < 256; i++ {
		doc = append(doc, set.deck.next())
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := fingerprint(t, w, 5), fingerprint(t, w, 5), fingerprint(t, w, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different inputs", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds generated the same inputs", w)
		}
	}
}

// TestWrongReferenceFails plants a wrong reference: the jobs that hit
// it must count as failures and the command must exit non-zero.
func TestWrongReferenceFails(t *testing.T) {
	rc := quickRun(t, "", false)
	rc.tamper = func(set *inputSet) { set.inputs[0].refSig += " (tampered)" }
	var out, errb bytes.Buffer
	if code := execute([]string{"corpus-closed"}, 1, rc, "", &out, &errb); code == 0 {
		t.Fatalf("exit 0 with a wrong reference:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) || !strings.Contains(out.String(), "(tampered)") {
		t.Errorf("the failure is not reported:\n%s", out.String())
	}
}
