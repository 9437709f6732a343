package harness

import (
	"fmt"
	"strings"

	"pools/internal/metrics"
	"pools/internal/plot"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// Fig2Result holds Figure 2: average operation time vs job mix for the
// tree traversal algorithm, comparing the random and producer/consumer
// models.
type Fig2Result struct {
	Random []Point // x = requested %adds (0..100)
	PC     []Point // x = measured %adds; swept over producer counts
}

// Fig2 reproduces Figure 2.
func Fig2(cfg Config) Fig2Result {
	c := cfg.withDefaults()
	var out Fig2Result
	for _, mix := range workload.MixSweep() {
		pt := c.average(mix*100, func(seed uint64) sim.RunResult {
			return c.runRandom(search.Tree, mix, seed)
		})
		out.Random = append(out.Random, pt)
	}
	for _, k := range workload.ProducerSweep(c.Procs) {
		pt := c.average(0, func(seed uint64) sim.RunResult {
			return c.runPC(search.Tree, k, workload.Contiguous, seed)
		})
		// The paper plots the producer/consumer data at the measured mix:
		// "the job mix was measured and the data was plotted on that
		// scale."
		pt.X = pt.MixAchieved * 100
		out.PC = append(out.PC, pt)
	}
	return out
}

// render draws the Figure 2 chart (times in ms, as in the paper) and
// table, and the CSV block of the same points.
func (r Fig2Result) render() (text, csv string) {
	var rows []Row
	for _, p := range r.Random {
		rows = append(rows, Row{Series: "random", Case: "random", Point: p})
	}
	for _, p := range r.PC {
		rows = append(rows, Row{Series: "producer/consumer", Case: "prod/cons", Point: p})
	}
	cols := []column[Row]{
		{head: "model", cell: rowCase, csv: "model", csvCell: func(r Row) string { return strings.ReplaceAll(r.Series, "/", "-") }},
		num("%adds", 1, "pct_adds", "%.1f", rowX),
		num("avg op (ms)", 1000, "avg_op_us", "%.1f", func(r Row) float64 { return r.Point.AvgOpTime }),
		stealingCol,
		num("segs/steal", 1, "segments_per_steal", "%.2f", func(r Row) float64 { return r.Point.SegmentsExamined }),
		stolenCol.csvOnly(),
	}
	series := seriesBy(rows, rowSeries, rowX, func(r Row) float64 { return r.Point.AvgOpTime / 1000 })
	return chart("Figure 2: average operation time for the tree traversal algorithm",
		"percent of operations that were adds", "avg op time (ms)", 16, series) + "\n" + table(rows, cols), csvTable(rows, cols)
}

// TraceResult holds one Figures 3-6 style panel: per-segment sizes over
// virtual time for one trial.
type TraceResult struct {
	Figure      string
	Kind        search.Kind
	Arrangement workload.Arrangement
	Producers   map[int]bool
	Sampled     [][]int64 // [segment][time bucket]
	Waited      []int64   // queueing delay per segment (interference)
	Stats       metrics.PoolStats
}

// FigTrace reproduces one of Figures 3-6: a single traced trial of the
// producer/consumer model with 5 producers and 11 consumers.
//
//	Figure 3: linear search, contiguous producers
//	Figure 4: linear search, balanced producers
//	Figure 5: tree search, contiguous producers
//	Figure 6: tree search, balanced producers
func FigTrace(cfg Config, figure string, kind search.Kind, arr workload.Arrangement, producers int) TraceResult {
	c := cfg.withDefaults()
	w := c.workloadFor(workload.ProducerConsumer)
	w.Producers = producers
	w.Arrangement = arr
	res := sim.Run(sim.RunConfig{
		Workload: w, Search: kind, Costs: c.Costs,
		Seed: rng.SubSeed(c.Seed, 0), Trace: true,
	})

	var end int64
	for i := range res.Traces {
		end = max(end, res.Traces[i].MaxTime())
	}
	times := bucketTimes(end)
	out := TraceResult{
		Figure:      figure,
		Kind:        kind,
		Arrangement: arr,
		Producers:   producerSet(c.Procs, producers, arr),
		Waited:      res.SegmentWaited,
		Stats:       res.Stats,
	}
	for i := range res.Traces {
		out.Sampled = append(out.Sampled, res.Traces[i].SampleAt(times))
	}
	return out
}

// traceBuckets is the number of uniform virtual-time buckets the trace
// experiments resample their per-segment and per-handle series into.
const traceBuckets = 100

// bucketTimes returns the right edges of traceBuckets uniform buckets
// over (0, end], with end floored at 1.
func bucketTimes(end int64) []int64 {
	end = max(end, 1)
	times := make([]int64, traceBuckets)
	for i := range times {
		times[i] = end * int64(i+1) / traceBuckets
	}
	return times
}

// producerSet marks the producer segments of a producer/consumer layout.
func producerSet(procs, producers int, arr workload.Arrangement) map[int]bool {
	set := map[int]bool{}
	for _, p := range workload.ProducerPositions(procs, producers, arr) {
		set[p] = true
	}
	return set
}

// Render draws the trace panel.
func (r TraceResult) Render() string {
	title := fmt.Sprintf("%s: segment sizes over time (%s search, %s producers)",
		r.Figure, r.Kind, r.Arrangement)
	body := plot.SegmentTraces(title, r.Sampled, r.Producers)
	var waits []string
	for i, w := range r.Waited {
		role := "C"
		if r.Producers[i] {
			role = "P"
		}
		waits = append(waits, fmt.Sprintf("%d%s:%d", i, role, w))
	}
	return body + "queueing delay per segment (µs): " + strings.Join(waits, " ") + "\n"
}

// ProducersDrained reports how many producer segments were ever stolen
// down to empty during the run — the paper's bunching evidence is that
// with contiguous producers "producer 4 is never stolen from".
func (r TraceResult) ProducersDrained() int {
	drained := 0
	for seg, isP := range r.Producers {
		if !isP {
			continue
		}
		// A producer's segment only shrinks via steals. Look for any
		// decrease in its sampled trace.
		tr := r.Sampled[seg]
		for i := 1; i < len(tr); i++ {
			if tr[i] < tr[i-1] {
				drained++
				break
			}
		}
	}
	return drained
}

// Fig7Result holds Figure 7 (errata orientation): average number of
// elements stolen per steal vs the number of producers, for the
// unbalanced (contiguous) and balanced arrangements under tree search.
type Fig7Result struct {
	Unbalanced []Point
	Balanced   []Point
}

// Fig7 reproduces Figure 7.
func Fig7(cfg Config) Fig7Result {
	c := cfg.withDefaults()
	var out Fig7Result
	for _, k := range workload.ProducerSweep(c.Procs) {
		out.Unbalanced = append(out.Unbalanced, c.average(float64(k), func(seed uint64) sim.RunResult {
			return c.runPC(search.Tree, k, workload.Contiguous, seed)
		}))
		out.Balanced = append(out.Balanced, c.average(float64(k), func(seed uint64) sim.RunResult {
			return c.runPC(search.Tree, k, workload.Balanced, seed)
		}))
	}
	return out
}

// render draws the Figure 7 chart and table, and the CSV block of the
// same points. Each table row pairs the unbalanced and balanced points at
// one producer count.
func (r Fig7Result) render() (text, csv string) {
	var rows []Row
	pairs := make([][2]Point, len(r.Unbalanced))
	for i := range pairs {
		pairs[i] = [2]Point{r.Unbalanced[i], r.Balanced[i]}
		rows = append(rows, Row{Series: "unbalanced", Point: r.Unbalanced[i]}, Row{Series: "balanced", Point: r.Balanced[i]})
	}
	cols := []column[[2]Point]{
		{head: "producers", cell: func(p [2]Point) string { return fmt.Sprintf("%d", int(p[0].X)) }, csv: "producers"},
		num("stolen/steal (unbal)", 1, "stolen_per_steal_unbalanced", "%.2f", func(p [2]Point) float64 { return p[0].ElementsStolen }),
		num("stolen/steal (bal)", 1, "stolen_per_steal_balanced", "%.2f", func(p [2]Point) float64 { return p[1].ElementsStolen }),
		num("steals/op (unbal)", 1, "steals_per_op_unbalanced", "%.4f", func(p [2]Point) float64 { return p[0].StealsPerOp }),
		num("steals/op (bal)", 1, "steals_per_op_balanced", "%.4f", func(p [2]Point) float64 { return p[1].StealsPerOp }),
	}
	series := seriesBy(rows, rowSeries, rowX, func(r Row) float64 { return r.Point.ElementsStolen })
	return chart("Figure 7: average number of elements stolen per steal (tree search)",
		"number of producers", "elements stolen per steal", 16, series) + "\n" + table(pairs, cols), csvTable(pairs, cols)
}
