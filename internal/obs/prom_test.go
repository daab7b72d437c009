package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// promSnapshot builds a deterministic snapshot exercising every
// exposition family: labelled counters, uncategorized counters,
// gauges (including a name needing sanitization), and a histogram.
func promSnapshot() *Snapshot {
	m := NewMetrics()
	for i := 0; i < 3; i++ {
		m.Event(Event{Kind: KindSyscallEnter, Str: "SYS_read"})
	}
	m.Event(Event{Kind: KindSyscallEnter, Str: "SYS_execve"})
	m.Event(Event{Kind: KindRuleFire, Str: "found-exec"})
	m.Event(Event{Kind: KindWarning, Str: "found-exec"})
	m.Event(Event{Kind: KindChaosFault, Str: "read-error"})
	m.Event(Event{Kind: KindMetric, Str: "harrier.instructions", Num: 294002})
	m.Event(Event{Kind: KindMetricBucket, Str: "taint.width", Num: 1, Num2: 40})
	m.Event(Event{Kind: KindMetricBucket, Str: "taint.width", Num: 2, Num2: 7})
	m.Event(Event{Kind: KindTaintSample, Num: 100, Num2: 80})
	return m.Snapshot()
}

// TestPrometheusGolden pins the exposition bytes: families in fixed
// order, label values sorted, no timestamps. A format change must be
// deliberate (-update) because live scrapers parse this page.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promSnapshot()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusByteStable renders the same snapshot twice: map
// iteration order must not leak into the page.
func TestPrometheusByteStable(t *testing.T) {
	s := promSnapshot()
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two renders of one snapshot differ")
	}
}

// TestMetricsSnapshotUnderPublish hammers Snapshot (and the /metrics
// render path) against a publishing run; run with -race this is the
// snapshot-safety gate for the service's /metrics.
func TestMetricsSnapshotUnderPublish(t *testing.T) {
	m := NewMetrics()
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		i := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			m.Event(Event{Kind: KindSyscallEnter, Str: "SYS_read", Num: i})
			m.Event(Event{Kind: KindMetric, Str: "g", Num: i})
			m.Event(Event{Kind: KindMetricBucket, Str: "h", Num: i % 8, Num2: 1})
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				s := m.Snapshot()
				var buf bytes.Buffer
				if err := WritePrometheus(&buf, s); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-writerDone
}
