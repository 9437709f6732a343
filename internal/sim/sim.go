// Package sim is the measurement substrate that stands in for the paper's
// 16-processor BBN Butterfly: a deterministic virtual-time multiprocessor.
//
// The paper's experimental effects — long searches under sparse job mixes,
// consumer bunching at producers' segments, convergence of the three
// algorithms as remote delays grow — are latency-accounting phenomena:
// they depend on how many accesses a process performs, how expensive each
// is (local vs remote), and how much queueing it suffers at contended
// objects. This simulator models exactly that:
//
//   - each virtual processor is a coroutine (iter.Pull) with its own
//     virtual clock (microseconds); finished coroutines are kept on an
//     idle list and reused by later Runs;
//   - Run's scheduler loop always resumes the processor with the smallest
//     clock, so execution is deterministic given a seed;
//   - shared objects (segments, tree nodes, shared counters) are
//     Resources with a busy-until time: accessing one queues behind the
//     previous holder, charging queueing delay exactly like a contended
//     lock on the Butterfly;
//   - access costs come from internal/numa's CostModel (remote = 4x
//     local, plus the Section 4.3 additive delay sweep).
//
// Between two Charge calls a processor's Go code runs exclusively (Run
// resumes one coroutine at a time and waits for it to yield), so
// simulation state needs no locks and real Go data structures (deques,
// game boards) can serve as the simulated memory contents.
package sim

import (
	"errors"
	"fmt"
	"iter"
	"sync"
)

// Resource is a shared object in the simulated machine: a pool segment, a
// tree node, or a shared counter. Accesses serialize: a processor arriving
// while the resource is busy waits until it frees, accumulating queueing
// delay (the simulated analogue of lock contention).
type Resource struct {
	busyUntil int64
	waited    int64 // total queueing delay suffered at this resource
	accesses  int64
}

// Waited returns the total queueing delay (virtual µs) suffered by all
// processors at this resource — the contention measure behind the paper's
// "increased interference between the processes as they collide at the
// producers' segments".
func (r *Resource) Waited() int64 { return r.waited }

// Accesses returns the number of charged accesses.
func (r *Resource) Accesses() int64 { return r.accesses }

// proc is one virtual processor.
type proc struct {
	body  func(*Env)
	w     *worker // the coroutine running body during Run
	id    int
	clock int64
	done  bool
}

// Sim is a virtual-time multiprocessor. Create with New, provide one body
// per processor with Spawn, then call Run.
type Sim struct {
	procs   []proc
	envs    []Env
	started bool
}

// New returns a simulator with n virtual processors.
func New(n int) *Sim {
	if n < 1 {
		panic(fmt.Sprintf("sim: %d processors", n))
	}
	s := &Sim{
		procs: make([]proc, n),
		envs:  make([]Env, n),
	}
	for i := range s.procs {
		s.procs[i].id = i
		s.envs[i].p = &s.procs[i]
	}
	return s
}

// Procs returns the number of virtual processors.
func (s *Sim) Procs() int { return len(s.procs) }

// Spawn sets the body executed by virtual processor id. The body runs
// inside the simulation: every Charge call may suspend it while other
// processors catch up in virtual time.
func (s *Sim) Spawn(id int, body func(*Env)) {
	if s.started {
		panic("sim: Spawn after Run")
	}
	s.procs[id].body = body
}

// Run executes all processor bodies to completion and returns the final
// virtual time (the makespan: the largest processor clock). A panic in a
// body propagates out of Run in the caller's goroutine.
func (s *Sim) Run() int64 {
	if s.started {
		panic("sim: Run called twice")
	}
	s.started = true
	acquireWorkers(s)
	defer stopWorkers(s)
	for {
		var next *proc
		for i := range s.procs {
			p := &s.procs[i]
			if p.done {
				continue
			}
			if next == nil || p.clock < next.clock {
				next = p
			}
		}
		if next == nil {
			break
		}
		if finished, _ := next.w.next(); finished {
			next.done = true
		}
	}
	releaseWorkers(s)
	var makespan int64
	for i := range s.procs {
		makespan = max(makespan, s.procs[i].clock)
	}
	return makespan
}

// worker is a reusable coroutine. It runs one processor body per Run,
// yielding false at every Charge and true when the body returns; it then
// waits, parked, for the next Run's body.
type worker struct {
	next  func() (bool, bool)
	stop  func()
	yield func(bool) bool
	body  func(*Env)
	env   *Env
}

// errStopped unwinds a body whose Run panicked in another processor.
var errStopped = errors.New("sim: run abandoned")

func (w *worker) loop(yield func(bool) bool) {
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	w.yield = yield
	for {
		w.body(w.env)
		w.body, w.env = nil, nil
		if !yield(true) {
			return
		}
	}
}

// maxIdle bounds the idle list, so a one-off wide simulation does not keep
// its coroutines parked forever.
const maxIdle = 256

// idle holds the coroutines of completed Runs. Concurrent Runs share it;
// a Run that panicked never returns its coroutines.
var idle struct {
	sync.Mutex
	workers []*worker
}

// acquireWorkers hands each processor with a body a coroutine, reusing
// idle ones first; processors without a body are done at once.
func acquireWorkers(s *Sim) {
	idle.Lock()
	defer idle.Unlock()
	for i := range s.procs {
		p := &s.procs[i]
		if p.body == nil {
			p.done = true
			continue
		}
		if n := len(idle.workers); n > 0 {
			p.w = idle.workers[n-1]
			idle.workers = idle.workers[:n-1]
		} else {
			p.w = new(worker)
			p.w.next, p.w.stop = iter.Pull(p.w.loop)
		}
		p.w.body, p.w.env = p.body, &s.envs[i]
	}
}

// releaseWorkers returns a completed Run's coroutines to the idle list.
func releaseWorkers(s *Sim) {
	idle.Lock()
	defer idle.Unlock()
	for i := range s.procs {
		p := &s.procs[i]
		if p.w == nil {
			continue
		}
		if len(idle.workers) < maxIdle {
			idle.workers = append(idle.workers, p.w)
		} else {
			p.w.stop()
		}
		p.w = nil
	}
}

// stopWorkers unwinds the bodies of a Run that panicked and ends their
// coroutines. After a normal Run, releaseWorkers has left it nothing to do.
func stopWorkers(s *Sim) {
	for i := range s.procs {
		if w := s.procs[i].w; w != nil {
			w.stop()
		}
	}
}

// Env is a virtual processor's interface to the simulation. Each body
// receives its own Env, which is valid only inside that body: Charge
// suspends the body's coroutine, so an Env must not be used from another
// goroutine.
type Env struct {
	p *proc
}

// ID returns the virtual processor's index.
func (e *Env) ID() int { return e.p.id }

// Now returns the processor's current virtual time (µs).
func (e *Env) Now() int64 { return e.p.clock }

// Charge spends cost virtual µs accessing r. If r is busy the processor
// first waits for it to free (queueing). A nil resource models private
// computation with no contention. Charge is the scheduling point: the
// processor may be suspended here while others run.
func (e *Env) Charge(r *Resource, cost int64) {
	if cost < 0 {
		cost = 0
	}
	e.yield()
	p := e.p
	start := p.clock
	if r != nil {
		if r.busyUntil > start {
			r.waited += r.busyUntil - start
			start = r.busyUntil
		}
		r.accesses++
	}
	p.clock = start + cost
	if r != nil {
		r.busyUntil = p.clock
	}
}

// Compute spends cost virtual µs of private computation.
func (e *Env) Compute(cost int64) { e.Charge(nil, cost) }

// yield suspends the processor's coroutine until the scheduler resumes it
// (i.e., until it holds the minimum virtual clock).
func (e *Env) yield() {
	if !e.p.w.yield(false) {
		panic(errStopped)
	}
}
