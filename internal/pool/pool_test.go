package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverything(t *testing.T) {
	p := New(Options{Workers: 4})
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		if !p.Submit(Task{Run: func() { n.Add(1) }}) {
			t.Fatalf("submit %d rejected on an unbounded pool", i)
		}
	}
	p.Close()
	if got := n.Load(); got != 100 {
		t.Fatalf("ran %d tasks, want 100", got)
	}
}

func TestPoolBoundedQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	p := New(Options{Workers: 1, Depth: 2})
	started := make(chan struct{})
	// Occupy the single worker so subsequent submits stay queued.
	p.Submit(Task{Run: func() { close(started); <-release }})
	<-started
	if !p.Submit(Task{Run: func() {}}) || !p.Submit(Task{Run: func() {}}) {
		t.Fatalf("queue rejected below its depth")
	}
	if p.Submit(Task{Run: func() {}}) {
		t.Fatalf("queue accepted past its depth")
	}
	if q := p.Queued(); q != 2 {
		t.Fatalf("Queued() = %d, want 2", q)
	}
	close(release)
	p.Close()
}

func TestPoolPanicRecyclesWorker(t *testing.T) {
	var panicked atomic.Int64
	p := New(Options{Workers: 2})
	var n atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		p.Submit(Task{
			Run: func() {
				if i%5 == 0 {
					panic("boom")
				}
				n.Add(1)
			},
			OnPanic: func(v any) {
				if v != "boom" {
					t.Errorf("OnPanic value = %v, want boom", v)
				}
				panicked.Add(1)
			},
		})
	}
	p.Close()
	if got := n.Load(); got != 16 {
		t.Fatalf("clean tasks ran = %d, want 16", got)
	}
	if got := panicked.Load(); got != 4 {
		t.Fatalf("OnPanic calls = %d, want 4", got)
	}
	if got := p.Recycled(); got != 4 {
		t.Fatalf("Recycled() = %d, want 4", got)
	}
}

func TestPoolDrainAbortsQueued(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	p := New(Options{Workers: 1, Depth: 8})
	var ran, aborted atomic.Int64
	p.Submit(Task{Run: func() { close(started); <-release; ran.Add(1) }})
	<-started
	for i := 0; i < 5; i++ {
		p.Submit(Task{
			Run:   func() { ran.Add(1) },
			Abort: func() { aborted.Add(1) },
		})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	p.Drain()
	wg.Wait()
	if got := ran.Load(); got != 1 {
		t.Fatalf("in-flight tasks run = %d, want 1", got)
	}
	if got := aborted.Load(); got != 5 {
		t.Fatalf("aborted tasks = %d, want 5", got)
	}
	if p.Submit(Task{Run: func() {}}) {
		t.Fatalf("drained pool accepted a task")
	}
}
