package harness

import (
	"fmt"

	"pools/internal/metrics"
	"pools/internal/policy"
	"pools/internal/rng"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// This file measures the open-loop multi-tenant extension: N tenants, each
// a contiguous block of processors with its own arrival rate, share one
// pool. The sweep crosses tenant count with lambda skew and reports each
// tenant's sojourn-time percentiles (p50/p99/p999) plus steal
// interference — the fraction of a tenant's successful steals whose
// victim segment belonged to another tenant. Percentiles come from the
// per-processor latency histograms merged across a tenant's processors
// and across trials (histograms merge exactly; averaging per-trial
// percentiles would not).

// DefaultTenantArrivals returns the arrival process of the tenants sweep:
// Poisson arrivals at a per-process rate that keeps the *average* process
// comfortably under capacity on the simulated Butterfly (an op plus its
// zipf service draw costs a few hundred virtual µs against a 1000 µs mean
// gap). Skewing lambda across tenants then pushes the hottest tenant
// toward (and past) saturation, which is where the sojourn tail separates
// from the median.
func DefaultTenantArrivals() workload.Arrivals {
	return workload.Arrivals{
		Lambda:      0.001, // arrivals per virtual µs per process
		Burstiness:  1,     // <= 1: Poisson
		ServiceMean: 100,   // µs of post-op work per element
		ServiceZipf: 1.1,   // heavy-tailed service mix
	}
}

// TenantFill is the initial pool size of the tenants sweep when
// Config.Fill is unset. The paper's 320-element seed cushions every
// fluctuation — at 16 procs no segment ever runs dry and no steal (hence
// no interference) occurs. A thin reserve is the regime where tenants
// actually contend for elements, which is what this sweep measures.
const TenantFill = 64

// DefaultTenantCounts returns the tenant counts the sweep crosses.
func DefaultTenantCounts() []int { return []int{2, 4} }

// DefaultTenantSkews returns the lambda-skew exponents the sweep crosses
// (0 = uniform tenants; higher concentrates arrivals on tenant 0).
func DefaultTenantSkews() []float64 { return []float64{0, 0.7, 1.4} }

// TenantPoint is one tenant's aggregate measurements at one sweep cell.
type TenantPoint struct {
	Tenant int     // tenant id (0 is the hottest under skew)
	Procs  int     // processors in this tenant's block
	Lambda float64 // per-process arrival rate after skew (arrivals/µs)
	Ops    int64   // completed operations across the tenant, all trials

	// Sojourn-time percentiles in virtual µs, from the merged histograms.
	P50, P99, P999 float64

	// Interference is the foreign fraction of this tenant's successful
	// steals: how often satisfying this tenant's demand reached into
	// another tenant's segments (thief-side view).
	Interference float64
}

// TenantRow is one sweep cell: a tenant count × skew pair and its
// per-tenant points.
type TenantRow struct {
	Tenants  int
	Skew     float64
	WorstP99 float64 // max per-tenant p99, the fairness headline
	Points   []TenantPoint
}

// TenantSweep crosses tenant counts with lambda skews, running the
// open-loop workload under the tenant-fair placement (policy.TenantFair,
// which also arms the engine's steal-interference classification) and
// aggregating per-tenant sojourn histograms and steal stats across
// workload.PaperTrials seeded trials. The sweep runs linear search: on a
// thin open-loop pool the tree search's round-counter walks dominate every
// fruitless probe (a sparse-pool abort costs tens of virtual ms), which
// would measure the search algorithm rather than tenant interference.
func TenantSweep(cfg Config, counts []int, skews []float64) []TenantRow {
	fill := cfg.Fill
	if fill == 0 {
		fill = TenantFill
	}
	c := cfg.withDefaults()
	var out []TenantRow
	for _, nt := range counts {
		for _, skew := range skews {
			w := c.workloadFor(workload.OpenLoop)
			w.InitialElements = fill
			w.AddFraction = 0.5
			w.Arrivals = DefaultTenantArrivals()
			w.Tenants = nt
			w.TenantSkew = skew
			tmap := policy.TenantMap(w.TenantMapping())
			n := w.TenantCount()
			soj := make([]metrics.LatencyHist, n)
			stats := make([]metrics.PoolStats, n)
			procs := make([]int, n)
			for trial := 0; trial < c.Trials; trial++ {
				res := sim.Run(sim.RunConfig{
					Workload: w,
					Search:   search.Linear,
					Costs:    c.Costs,
					Seed:     rng.SubSeed(c.Seed, trial),
					Policies: policy.Set{Place: policy.TenantFair{Map: tmap}},
				})
				for p := 0; p < w.Procs; p++ {
					t := w.TenantOf(p)
					soj[t].Merge(&res.Sojourns[p])
					stats[t].Merge(&res.PerProc[p])
					if trial == 0 {
						procs[t]++
					}
				}
			}
			row := TenantRow{Tenants: n, Skew: skew}
			for t := 0; t < n; t++ {
				pt := TenantPoint{
					Tenant:       t,
					Procs:        procs[t],
					Lambda:       w.Arrivals.Lambda * w.TenantWeight(t),
					Ops:          soj[t].N(),
					P50:          soj[t].P50(),
					P99:          soj[t].P99(),
					P999:         soj[t].P999(),
					Interference: stats[t].StealInterference(),
				}
				if pt.P99 > row.WorstP99 {
					row.WorstP99 = pt.P99
				}
				row.Points = append(row.Points, pt)
			}
			out = append(out, row)
		}
	}
	return out
}

// renderTenants draws the sweep figure (worst-tenant p99 vs skew, one
// series per tenant count) and the full per-tenant table, and the CSV
// block with one line per tenant per sweep cell.
func renderTenants(rows []TenantRow) (text, csv string) {
	type cell struct {
		TenantRow
		TenantPoint
	}
	var cells []cell
	for _, r := range rows {
		for _, p := range r.Points {
			cells = append(cells, cell{r, p})
		}
	}
	cols := []column[cell]{
		count("tenants", "tenants", func(c cell) int64 { return int64(c.Tenants) }),
		num("skew", 1, "skew", "%.2f", func(c cell) float64 { return c.Skew }),
		count("tenant", "tenant", func(c cell) int64 { return int64(c.Tenant) }),
		count("procs", "procs", func(c cell) int64 { return int64(c.Procs) }),
		fixed("λ/proc", "%.4f", "lambda_per_proc", "%.5f", func(c cell) float64 { return c.Lambda }),
		num("p50 µs", 1, "p50_us", "%.1f", func(c cell) float64 { return c.P50 }),
		num("p99 µs", 1, "p99_us", "%.1f", func(c cell) float64 { return c.P99 }),
		num("p999 µs", 1, "p999_us", "%.1f", func(c cell) float64 { return c.P999 }),
		fixed("interf", "%.2f", "steal_interference", "%.4f", func(c cell) float64 { return c.Interference }),
		count("ops", "ops", func(c cell) int64 { return c.Ops }),
	}
	series := seriesBy(rows, func(r TenantRow) string { return fmt.Sprintf("%d tenants", r.Tenants) },
		func(r TenantRow) float64 { return r.Skew }, func(r TenantRow) float64 { return r.WorstP99 / 1000 })
	return chart("Open-loop tenants: worst-tenant p99 sojourn vs lambda skew (linear search, tenant-fair placement)",
		"lambda skew (zipf exponent)", "worst-tenant p99 sojourn (virt ms)", 16, series) + "\n" + table(cells, cols), csvTable(cells, cols)
}
