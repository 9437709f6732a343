package harness

import (
	"bytes"
	"fmt"

	"pools/internal/metrics"
	"pools/internal/plot"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/trace"
	"pools/internal/workload"
)

// EventTraceBuf is the per-handle flight-recorder capacity the event-trace
// experiment attaches. Large enough that the pinned burst run never drops
// an event; EventTraceResult.Dropped reports if a custom config overflows.
const EventTraceBuf = 4096

// EventTraceResult holds one flight-recorder run: the full per-handle
// event timelines plus an event-density resampling for the terminal
// panels. The run uses the same clustered burst producer/consumer
// configuration as the controller-trajectory experiment, so the two
// views line up: where the control trace shows a consumer's steal
// fraction climbing, the event trace shows the probe and transfer storm
// that drove it.
type EventTraceResult struct {
	Kind      search.Kind
	Batch     int
	Producers map[int]bool
	// Timelines are the raw per-handle recorder snapshots on the virtual
	// clock, exportable with trace.ChromeJSON or trace.WriteCSV.
	Timelines []trace.Timeline
	// Density[h] counts handle h's recorded events per uniform
	// virtual-time bucket — the rows of the terminal panel.
	Density [][]int64
	// Transfers[h] and Crosses[h] are handle h's reserve/transfer and
	// cross-cluster probe event totals, for the summary table.
	Transfers []int64
	Crosses   []int64
	Stats     metrics.PoolStats
	Makespan  int64
	// Dropped is the total number of events lost to ring-buffer
	// wraparound across all handles (0 at the default EventTraceBuf).
	Dropped uint64
}

// EventTraceRun executes one burst producer/consumer trial on the
// clustered topology with the flight recorder attached to every handle,
// and resamples each handle's event stream into uniform time buckets.
// Producers are contiguous (as in the locality sweep), so consumer
// handles far from any producer show dense probe/transfer activity while
// producer tracks stay sparse — the asymmetry the density panel exists
// to make visible.
func EventTraceRun(cfg Config, kind search.Kind, producers, batch int) EventTraceResult {
	c := cfg.withDefaults()
	res := c.burstTrace(kind, producers, batch, sim.RunConfig{EventBuf: EventTraceBuf})
	out := EventTraceResult{
		Kind:      kind,
		Batch:     batch,
		Producers: producerSet(c.Procs, producers, workload.Contiguous),
		Timelines: res.Events,
		Stats:     res.Stats,
		Makespan:  res.Makespan,
	}
	end := max(res.Makespan, 1)
	for _, tl := range res.Events {
		out.Dropped += tl.Dropped
		density := make([]int64, traceBuckets)
		var transfers, crosses int64
		for _, ev := range tl.Events {
			density[min(max(int(ev.TS*traceBuckets/end), 0), traceBuckets-1)]++
			switch ev.Kind {
			case trace.ReserveTransfer:
				transfers++
			case trace.ProbeCross:
				crosses++
			}
		}
		out.Density = append(out.Density, density)
		out.Transfers = append(out.Transfers, transfers)
		out.Crosses = append(out.Crosses, crosses)
	}
	return out
}

// render draws the event-density panels — one row per handle over
// virtual time — and a per-handle activity table, footed by the run's
// one-line stats summary; the CSV block holds the raw recorded events in
// long form (one row per event, merged across handles by virtual time)
// via trace.WriteCSV.
func (r EventTraceResult) render() (text, csv string) {
	title := fmt.Sprintf("Flight recorder: events per handle over time (%s search, burst batch %d, %d-proc clusters)",
		r.Kind, r.Batch, LocalityClusterSize)
	body := plot.TracePanels(title, "handle", "events per bucket", r.Density, r.Producers, "P", "C")
	var cells [][]string
	for h, tl := range r.Timelines {
		cells = append(cells, []string{
			fmt.Sprintf("%d", h),
			handleRole(r.Producers, h),
			fmt.Sprintf("%d", len(tl.Events)),
			fmt.Sprintf("%d", r.Transfers[h]),
			fmt.Sprintf("%d", r.Crosses[h]),
			fmt.Sprintf("%d", tl.Dropped),
		})
	}
	table := plot.Table([]string{"handle", "role", "events", "transfers", "cross probes", "dropped"}, cells)
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, r.Timelines); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return body + "\n" + table + "\n" + r.Stats.Summary() + "\n", buf.String()
}
