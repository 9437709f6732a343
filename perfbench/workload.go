package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// bench is one named benchmark input, generated once per run from the
// seed. A round is setup, then run, then verify; the runner times setup
// for setup_s and run for the end-to-end metrics.
type bench interface {
	// setup constructs the pool and seeds it, replacing the previous
	// round's pool.
	setup() error
	// run performs one round on the pool setup built and returns the
	// operations it completed and the wall time they took.
	run() (ops int64, wall time.Duration)
	// verify checks the round's outputs and returns how many of its
	// operations failed; err describes the first failure.
	verify() (failed int64, err error)
	// expectedOps is a round's operation count when every operation
	// succeeds: what a round that misses its deadline fails.
	expectedOps() int64
	// latencies returns the round's Get latency sample (ns) and how many
	// Gets it stands for.
	latencies() (ns []float64, gets int64)
	// trace makes the following rounds time every call into the pool
	// into logs (one per worker goroutine); nil turns tracing off.
	trace(logs []*spanLog)
	// workers is the number of goroutines a round runs, hence the number
	// of span logs trace wants.
	workers() int
}

// workloadNames lists the workloads in the order the docs present them.
var workloadNames = []string{"tasktree", "handoff", "keyed-exchange", "paper-sim"}

// newWorkload generates the named workload's inputs for seed. Generation
// and any reference result are computed here, outside every timed region.
func newWorkload(name string, seed uint64) (bench, error) {
	switch name {
	case "tasktree":
		return newTasktree(seed, true), nil
	case "handoff":
		return newHandoff(seed, false), nil
	case "keyed-exchange":
		return newKeyedExchange(seed), nil
	case "paper-sim":
		return newPaperSim(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// paddedCount is a counter the workers of a round share, alone on its
// cache lines so that no unrelated write contends with it.
type paddedCount struct {
	_ [64]byte
	n atomic.Int64
	_ [56]byte
}
