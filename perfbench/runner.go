package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

const (
	// setup_s is the median over setupBatches batches of setupBatch
	// back-to-back setups, timed after the warm-up round. One setup takes
	// microseconds and alternates between allocator fast and slow paths;
	// a batch averages over both. The setups that start rounds are not
	// counted: how many rounds fit in a run depends on throughput, and
	// setup_s must not.
	setupBatches = 15
	setupBatch   = 16
	// minRounds is the fewest measured rounds a timed run makes, however
	// short --seconds is.
	minRounds = 3
	// roundDeadline is the watchdog: a round still running after it is a
	// failure, reported with a goroutine dump instead of a hang.
	roundDeadline = 60 * time.Second
)

// runner runs rounds, keeps the correctness account and collects metrics.
type runner struct {
	stdout, stderr    io.Writer
	attempted, failed int64
	metrics           map[string]float64

	// Traced runs only.
	ovh        float64   // span overhead (ns)
	epoch      time.Time // span time origin
	nextWorker int       // span log numbering
	nextRound  uint32    // round span numbering
}

func newRunner(stdout, stderr io.Writer) *runner {
	return &runner{stdout: stdout, stderr: stderr, metrics: map[string]float64{}}
}

// roundResult is one round's measurements.
type roundResult struct {
	ops     int64
	wall    time.Duration
	mallocs uint64
	lat     []float64 // Get latency sample (ns)
	gets    int64     // Gets the sample stands for
}

func (r roundResult) throughput() float64 { return float64(r.ops) / r.wall.Seconds() }

// round sets up w, runs it under the watchdog and verifies it. A failed
// verification is counted and the run goes on; a missed deadline returns
// errDeadline, after which the process must end.
func (rn *runner) round(w bench) (roundResult, error) {
	if err := w.setup(); err != nil {
		return roundResult{}, err
	}
	runtime.GC() // start every round from the same clean heap
	var r roundResult
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := withDeadline(roundDeadline, rn.stderr, func() { r.ops, r.wall = w.run() })
	rn.attempted += w.expectedOps()
	if err != nil {
		rn.failed += w.expectedOps()
		return r, err
	}
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	failed, verr := w.verify()
	rn.failed += failed
	if verr != nil {
		fmt.Fprintln(rn.stderr, "perfbench: FAILED:", verr)
	}
	r.lat, r.gets = w.latencies()
	return r, nil
}

// timed is the end-to-end run: one warm-up round, setups for setup_s,
// then measured rounds until the time is up, reported as medians.
func (rn *runner) timed(name string, seed uint64, seconds time.Duration) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if name == "paper-sim" {
		ops, failed, err := checkSimReference()
		rn.attempted += ops
		rn.failed += failed
		if err != nil {
			fmt.Fprintln(rn.stderr, "perfbench: FAILED:", err)
		}
	}
	if _, err := rn.round(w); err != nil {
		return err
	}
	setups := make([]float64, setupBatches)
	for i := range setups {
		t0 := time.Now()
		for range setupBatch {
			if err := w.setup(); err != nil {
				return err
			}
		}
		setups[i] = time.Since(t0).Seconds() / setupBatch
	}
	var tput, lat []float64
	var ops, gets int64
	var mallocs uint64
	start := time.Now()
	for len(tput) < minRounds || time.Since(start) < seconds {
		r, err := rn.round(w)
		if err != nil {
			return err
		}
		tput = append(tput, r.throughput())
		lat = append(lat, r.lat...)
		ops += r.ops
		gets += r.gets
		mallocs += r.mallocs
	}
	fmt.Fprintf(rn.stdout, "# rounds=%d (+1 warm-up) setups=%d ops=%d get_latency_samples=%d of %d gets\n",
		len(tput), setupBatches*setupBatch, ops, len(lat), gets)
	fmt.Fprintf(rn.stdout, "# round throughputs (1/s): %.4g\n", tput)
	rn.metrics["throughput_ops_s"] = median(tput)
	rn.metrics["get_p50_ns"] = percentile(lat, 0.5)
	rn.metrics["get_p99_ns"] = percentile(lat, 0.99)
	rn.metrics["allocs_per_op"] = float64(mallocs) / float64(ops)
	rn.metrics["setup_s"] = median(setups)
	return nil
}
