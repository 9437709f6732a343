package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/workload"
)

// livenessBound is the wall-clock budget of one RealRun in
// TestRealRunTerminates. A healthy run of the workload below takes a few
// milliseconds (tens under -race); a run that livelocks in the abort rule
// spins until the budget is gone.
const livenessBound = 10 * time.Second

// TestRealRunTerminates bounds time-to-terminate, not just results:
// every search kind's RealRun must finish within livenessBound at
// GOMAXPROCS 1, nproc and 4×nproc. The oversubscribed shape is the one
// that matters: eight searchers sharing few Ps must still be able to
// certify an all-searching empty pool, which fails if fruitless probes
// keep a transfer counted in flight. On timeout the test fails with a
// dump of every goroutine.
func TestRealRunTerminates(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	nproc := runtime.NumCPU()
	shapes := []int{1}
	if nproc > 1 {
		shapes = append(shapes, nproc)
	}
	shapes = append(shapes, 4*nproc)
	const trials = 4
	for _, procs := range shapes {
		runtime.GOMAXPROCS(procs)
		for _, kind := range search.Kinds() {
			for trial := 0; trial < trials; trial++ {
				wl := realWL(workload.RandomOps)
				wl.AddFraction = 0.4
				cfg := RealRunConfig{Workload: wl, Search: kind, Seed: rng.SubSeed(9, trial)}
				name := fmt.Sprintf("GOMAXPROCS=%d/%v/trial%d", procs, kind, trial)
				runWithin(t, name, livenessBound, cfg)
			}
		}
	}
}

// runWithin runs cfg and fails the test with a goroutine dump if it does
// not return within bound. A stuck run cannot be cancelled, so its
// goroutines outlive the failure; the dump is what diagnoses it.
func runWithin(t *testing.T, name string, bound time.Duration, cfg RealRunConfig) {
	t.Helper()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := RealRun(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := time.Since(start); d > bound/4 {
			t.Logf("%s: took %v (bound %v)", name, d, bound)
		}
	case <-time.After(bound):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s: RealRun still running after %v; goroutines:\n%s", name, bound, buf)
	}
}
