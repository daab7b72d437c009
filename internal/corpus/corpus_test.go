package corpus

import (
	"testing"
)

// runTable executes every scenario of a table and checks the
// paper-reported expectations.
func runTable(t *testing.T, table string) {
	t.Helper()
	scs := ByTable(table)
	if len(scs) == 0 {
		t.Fatalf("no scenarios registered for %s", table)
	}
	for _, sc := range scs {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := sc.RunWith(nil)
			if err != nil {
				t.Fatalf("setup/run: %v", err)
			}
			for _, p := range sc.Check(res) {
				t.Error(p)
			}
		})
	}
}

func TestTable4ExecutionFlow(t *testing.T)   { runTable(t, "T4") }
func TestTable5ResourceAbuse(t *testing.T)   { runTable(t, "T5") }
func TestTable6InformationFlow(t *testing.T) { runTable(t, "T6") }

func TestScenarioLookup(t *testing.T) {
	if _, ok := ByName("execve-hardcode"); !ok {
		t.Error("execve-hardcode not registered")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("found nonexistent scenario")
	}
	if len(All()) < 25 {
		t.Errorf("registry unexpectedly small: %d", len(All()))
	}
}

func TestTable7TrustedPrograms(t *testing.T) { runTable(t, "T7") }

func TestTable8RealExploits(t *testing.T) { runTable(t, "T8") }

func TestMacroBenchmarks(t *testing.T) {
	runTable(t, "M1")
	runTable(t, "M2")
	runTable(t, "M3")
}

func TestPerfWorkloads(t *testing.T) {
	for _, wl := range PerfWorkloads() {
		for _, mode := range []PerfMode{PerfBare, PerfNoDataflow, PerfFull} {
			res, err := runPerf(wl, mode, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, mode, err)
			}
			if res.TotalSteps < 10000 {
				t.Errorf("%s/%s: only %d steps", wl, mode, res.TotalSteps)
			}
			if res.Process.Fault != nil {
				t.Errorf("%s/%s: fault %v", wl, mode, res.Process.Fault)
			}
			if len(res.Warnings) != 0 {
				t.Errorf("%s/%s: unexpected warnings %v", wl, mode, res.Warnings)
			}
			if mode == PerfBare && res.Stats.Instructions != 0 {
				t.Errorf("bare mode instrumented instructions")
			}
			if mode == PerfFull && res.Stats.Instructions == 0 {
				t.Errorf("full mode did not instrument")
			}
		}
	}
}

func TestRunPerfUnknown(t *testing.T) {
	if _, err := runPerf("bogus", PerfFull, nil); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestTable1MalwareModels(t *testing.T) { runTable(t, "T1") }

func TestTable1PatternColumns(t *testing.T) {
	// Regenerating Table 1: each model's detected execution patterns.
	want := map[string][3]bool{ // hardcoded, remote, degrading
		"pwsteal-tarno":      {true, false, false},
		"lodeight":           {true, true, false},
		"vundo":              {false, false, true},
		"mydoom":             {true, true, false},
		"phatbot":            {true, true, false},
		"sendmail-trojan":    {false, true, false},
		"tcpwrappers-trojan": {true, false, false},
	}
	for name, w := range want {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		res, err := sc.RunWith(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hard, remote, degrading := Table1Row(res)
		if hard != w[0] || remote != w[1] || degrading != w[2] {
			t.Errorf("%s: (hardcoded,remote,degrading) = (%v,%v,%v), want (%v,%v,%v)",
				name, hard, remote, degrading, w[0], w[1], w[2])
		}
	}
}

// TestDeterminism: every scenario must produce byte-identical results
// across runs — the property that makes the simulator substitution
// reviewable (DESIGN.md §2).
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"pma", "superforker", "execve-remote", "mytob", "xeyes"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		r1, err := sc.RunWith(nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sc.RunWith(nil)
		if err != nil {
			t.Fatal(err)
		}
		if r1.TotalSteps != r2.TotalSteps {
			t.Errorf("%s: steps %d vs %d", name, r1.TotalSteps, r2.TotalSteps)
		}
		if string(r1.Console) != string(r2.Console) {
			t.Errorf("%s: console differs", name)
		}
		if len(r1.Warnings) != len(r2.Warnings) {
			t.Fatalf("%s: warning counts differ: %d vs %d", name, len(r1.Warnings), len(r2.Warnings))
		}
		for i := range r1.Warnings {
			if r1.Warnings[i].Message != r2.Warnings[i].Message ||
				r1.Warnings[i].Severity != r2.Warnings[i].Severity {
				t.Errorf("%s: warning %d differs", name, i)
			}
		}
	}
}
