// Package pool is the worker-pool substrate shared by the parallel
// corpus runner and the hth analysis service: fixed worker goroutines
// draining a (optionally bounded) task queue, with panic containment
// per task and worker recycling — a task that panics takes down only
// its own execution, the worker goroutine is replaced, and the queue
// keeps draining.
//
// Two shutdown disciplines are provided, matching the two callers:
//
//   - Close: stop accepting, run everything already queued, wait
//     (the corpus sweep — every scenario must execute);
//   - Drain: stop accepting, let in-flight tasks finish, and hand
//     every still-queued task to its Abort hook instead of Run (the
//     service's graceful drain — no job ever vanishes, queued work is
//     completed as a structured abort).
package pool

import (
	"sync"
	"time"
)

// Task is one unit of work. Run executes on a worker goroutine; the
// optional hooks give the submitter a say in the two abnormal ends a
// task can meet.
type Task struct {
	// Run performs the work. Required.
	Run func()
	// Abort is invoked — instead of Run — when the pool is drained
	// while the task is still queued. Nil drops the task silently;
	// callers that must account for every submission (the service's
	// "no job ever vanishes" guarantee) complete the work item here.
	Abort func()
	// OnPanic is invoked on the recovering goroutine when Run panics,
	// with the recovered value, after the worker's replacement has
	// been arranged. The task is not retried by the pool; retry policy
	// belongs to the submitter.
	OnPanic func(v any)

	// enqueued is stamped by Submit so the dequeue can attribute the
	// task's queue wait (see QueueWait).
	enqueued time.Time
}

// Options configure a pool.
type Options struct {
	// Workers is the number of worker goroutines (<= 0 selects 1).
	Workers int
	// Depth bounds the queue of not-yet-running tasks; Submit returns
	// false when the bound is reached. 0 leaves the queue unbounded
	// (the corpus discipline: enqueue the whole sweep, let the
	// workers drain it).
	Depth int
	// OnRecycle, when non-nil, is told about each worker recycle (a
	// task panic that retired a worker goroutine and spawned a
	// replacement), with the recovered value.
	OnRecycle func(v any)
}

// Pool runs tasks on a fixed set of worker goroutines.
type Pool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	opts     Options
	queue    []Task
	inflight int
	recycled uint64
	waited   uint64 // tasks whose queue wait has been recorded
	waitNS   int64  // cumulative queue wait
	closed   bool   // no further Submits; workers exit when queue empties
	wg       sync.WaitGroup
}

// New builds a pool and starts its workers.
func New(opts Options) *Pool {
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	p := &Pool{opts: opts}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.worker()
	}
	return p
}

// Submit enqueues a task. It reports false — and does not retain the
// task — when the queue is at Depth or the pool is closed/draining;
// the caller owns the backpressure response.
func (p *Pool) Submit(t Task) bool {
	if t.Run == nil {
		return false
	}
	p.mu.Lock()
	if p.closed || (p.opts.Depth > 0 && len(p.queue) >= p.opts.Depth) {
		p.mu.Unlock()
		return false
	}
	t.enqueued = time.Now()
	p.queue = append(p.queue, t)
	p.mu.Unlock()
	p.cond.Signal()
	return true
}

// QueueWait reports the cumulative time dequeued tasks spent waiting
// in the queue and how many tasks that covers — the pool-level side
// of the service's queue-wait attribution (shard gauges divide the
// two for a running average).
func (p *Pool) QueueWait() (tasks uint64, total time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.waited, time.Duration(p.waitNS)
}

// Queued returns the number of tasks waiting to run.
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// InFlight returns the number of tasks currently executing.
func (p *Pool) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

// Recycled returns how many worker goroutines have been replaced
// after a task panic.
func (p *Pool) Recycled() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recycled
}

// Close stops accepting new tasks, runs everything already queued,
// and waits for the workers to exit. Safe to call once.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Drain stops accepting new tasks, pulls every still-queued task off
// the queue and invokes its Abort hook inline, then waits for the
// in-flight tasks (and the workers) to finish. A task observed by
// Drain is therefore either run to completion by a worker (it was
// already in flight) or aborted — never dropped.
func (p *Pool) Drain() {
	p.mu.Lock()
	p.closed = true
	aborted := p.queue
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	for _, t := range aborted {
		if t.Abort != nil {
			t.Abort()
		}
	}
	p.wg.Wait()
}

// worker is one pool goroutine: dequeue, run, repeat. A panicking
// task retires the goroutine (after recovery and bookkeeping) and a
// replacement inherits its WaitGroup slot, so one hostile task never
// shrinks the pool.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			p.wg.Done()
			return
		}
		t := p.queue[0]
		p.queue = p.queue[1:]
		p.inflight++
		if !t.enqueued.IsZero() {
			p.waited++
			p.waitNS += time.Since(t.enqueued).Nanoseconds()
		}
		p.mu.Unlock()
		if !p.runTask(t) {
			// The task panicked: recycle this worker. The replacement
			// goroutine takes over the wg slot; this one exits.
			go p.worker()
			return
		}
	}
}

// runTask executes one task with panic containment, reporting whether
// it completed without panicking. A panic is counted as a recycle
// before the handlers run, so whatever OnPanic settles is observed
// alongside an up-to-date Recycled.
func (p *Pool) runTask(t Task) (ok bool) {
	defer func() {
		r := recover()
		p.mu.Lock()
		p.inflight--
		if r != nil {
			p.recycled++
		}
		p.mu.Unlock()
		if r != nil {
			ok = false
			if t.OnPanic != nil {
				t.OnPanic(r)
			}
			if p.opts.OnRecycle != nil {
				p.opts.OnRecycle(r)
			}
		}
	}()
	t.Run()
	return true
}
