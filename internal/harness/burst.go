package harness

import (
	"fmt"

	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the batch-operation extension: the paper shows pool
// throughput is dominated by how rarely an operation leaves its local
// segment; batching pushes the same lever from the other side, amortizing
// one segment acquisition over k elements. The burst workload replays the
// producer/consumer model with every process moving elements in batches
// (PutAll/GetN), sweeping the batch size.

// BurstBatchSweep returns the default batch sizes for the burst sweep.
// Batch 1 is the degenerate case, equivalent in work to the paper's
// single-element producer/consumer model.
func BurstBatchSweep() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// BurstSweep runs the burst workload at each batch size and averages the
// usual measurements per data point (Point.X is the batch size).
// Producers are balanced around the ring (the Section 4.2 lesson
// applied); per-element time is the headline: it should fall as the
// batch grows, because one segment access — and one queueing exposure at
// a contended segment — now covers the whole batch.
func BurstSweep(cfg Config, kind search.Kind, producers int, batches []int) []Row {
	c := cfg.withDefaults()
	var out []Row
	for _, bs := range batches {
		out = append(out, Row{Point: c.average(float64(bs), func(seed uint64) sim.RunResult {
			w := c.workloadFor(workload.Burst)
			w.Producers = producers
			w.Arrangement = workload.Balanced
			w.BatchSize = bs
			return sim.Run(sim.RunConfig{
				Workload: w, Search: kind, Costs: c.Costs, Seed: seed,
			})
		})})
	}
	return out
}

// renderBurst draws the burst sweep chart and table, and the CSV block.
func renderBurst(kind search.Kind, rows []Row) (text, csv string) {
	cols := []column[Row]{xCol("batch", "batch"), perElemCol, opUSCol, stolenCol, stealsCol, makespanCol}
	series := seriesBy(rows, func(Row) string { return "per-element time" }, rowX,
		func(r Row) float64 { return r.Point.PerElementTime })
	return chart(fmt.Sprintf("Burst workload: per-element operation time vs batch size (%s search)", kind),
		"batch size (elements per PutAll/GetN)", "per-element time (virt µs)", 16, series) + "\n" + table(rows, cols), csvTable(rows, cols)
}
