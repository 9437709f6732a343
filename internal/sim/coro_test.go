package sim

import (
	"reflect"
	"sync"
	"testing"
)

// TestSimReusesCoroutines pins the idle list: once warmed, a Run takes
// its coroutines from it instead of starting fresh ones, so what is left
// per Run is the Sim and its two slices plus the caller's own bodies.
func TestSimReusesCoroutines(t *testing.T) {
	const procs, charges = 16, 100
	run := func() {
		var r Resource
		body := func(e *Env) {
			for i := 0; i < charges; i++ {
				e.Charge(&r, 1)
			}
		}
		s := New(procs)
		for id := 0; id < procs; id++ {
			s.Spawn(id, body)
		}
		if got := s.Run(); got != procs*charges {
			t.Fatalf("makespan = %d, want %d", got, procs*charges)
		}
	}
	run() // warm the idle list
	if allocs := testing.AllocsPerRun(20, run); allocs > 3*procs {
		t.Fatalf("%.0f allocations per %d-processor Run, want at most %d (coroutines not reused?)",
			allocs, procs, 3*procs)
	}
}

// TestSimBodyPanicIsRecoverable checks that a panicking body surfaces as
// a panic from Run in the caller's goroutine, that the other bodies are
// unwound, and that the simulator still works afterwards.
func TestSimBodyPanicIsRecoverable(t *testing.T) {
	const procs = 4
	unwound := 0
	got := func() (v any) {
		defer func() { v = recover() }()
		s := New(procs)
		var r Resource
		for id := 0; id < procs; id++ {
			s.Spawn(id, func(e *Env) {
				defer func() { unwound++ }()
				for i := 0; i < 10; i++ {
					if id == 2 && i == 3 {
						panic("boom")
					}
					e.Charge(&r, 10)
				}
			})
		}
		s.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	if unwound != procs {
		t.Fatalf("%d of %d bodies unwound", unwound, procs)
	}

	s := New(procs)
	for id := 0; id < procs; id++ {
		var r Resource
		s.Spawn(id, func(e *Env) {
			for i := 0; i < 10; i++ {
				e.Charge(&r, 10)
			}
		})
	}
	if makespan := s.Run(); makespan != 100 {
		t.Fatalf("makespan after a panicked Run = %d, want 100", makespan)
	}
}

// TestSimConcurrentRunsMatchSerial runs different-seed simulations at
// once, so they share the idle list of coroutines: each result must equal
// the same config's serial run.
func TestSimConcurrentRunsMatchSerial(t *testing.T) {
	golden := goldenConfigs()
	var cfgs []RunConfig
	for _, name := range []string{"linear/random-mix30", "tree/pc5-balanced", "linear/churn-drain"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := golden[name]
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	want := make([]RunResult, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = Run(cfg)
	}
	got := make([]RunResult, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Run(cfg)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("run %d (seed %d): concurrent result differs from serial: got makespan %d, %d ops; want makespan %d, %d ops",
				i, cfgs[i].Seed, got[i].Makespan, got[i].Stats.Ops(), want[i].Makespan, want[i].Stats.Ops())
		}
	}
}
