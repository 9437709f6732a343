package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/search"
	"pools/internal/sim"
	"pools/internal/workload"
)

// simModel is one of the paper's workload models at the paper's protocol
// (16 processors, 5000 operations, 320 initial elements).
type simModel struct {
	name string
	cfg  workload.Config
}

func simModels() []simModel {
	random := func(add float64) workload.Config {
		c := workload.Paper(workload.RandomOps)
		c.AddFraction = add
		return c
	}
	pc := workload.Paper(workload.ProducerConsumer)
	pc.Producers = 5
	return []simModel{
		{"random20", random(0.2)},
		{"random50", random(0.5)},
		{"random80", random(0.8)},
		{"prodcons5", pc},
	}
}

// simSearches is the paper's three search algorithms, in digest order.
var simSearches = []search.Kind{search.Tree, search.Linear, search.Random}

// simTrialsPerRound is how many trial seeds one paper-sim round runs
// every search × model configuration for.
const simTrialsPerRound = 1

// simRecord is what the digest covers for one simulated run: its virtual
// makespan and operation counts.
type simRecord struct {
	Trial    int    `json:"trial"`
	Search   string `json:"search"`
	Model    string `json:"model"`
	Makespan int64  `json:"makespan_us"`
	Adds     int64  `json:"adds"`
	Removes  int64  `json:"removes"`
	Steals   int64  `json:"steals"`
	Aborts   int64  `json:"aborts"`
}

// simDigest hashes records in order.
func simDigest(recs []simRecord) string {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range recs {
		for _, v := range []int64{int64(r.Trial), r.Makespan, r.Adds, r.Removes, r.Steals, r.Aborts} {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		h.Write([]byte(r.Search + "/" + r.Model))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// simExpected is the committed result of the reference trial seeds.
type simExpected struct {
	ReferenceSeed uint64      `json:"reference_seed"`
	Digest        string      `json:"digest"`
	Runs          []simRecord `json:"runs"`
}

//go:embed testdata/papersim_expected.json
var simExpectedJSON []byte

func loadSimExpected() (simExpected, error) {
	var e simExpected
	if err := json.Unmarshal(simExpectedJSON, &e); err != nil {
		return e, fmt.Errorf("paper-sim: committed digest: %w", err)
	}
	return e, nil
}

// simTrialSeeds derives a round's trial seeds from the workload seed.
func simTrialSeeds(seed uint64) []uint64 {
	r := stream{s: mix(seed ^ 0x7369)}
	out := make([]uint64, simTrialsPerRound)
	for i := range out {
		out[i] = r.next()
	}
	return out
}

// simRun runs one configuration of the paper's protocol. Costs must be
// explicit: sim.Run with a zero cost model never advances virtual time.
func simRun(m simModel, kind search.Kind, seed uint64, ops int) sim.RunResult {
	w := m.cfg
	w.TotalOps = ops
	return sim.Run(sim.RunConfig{Workload: w, Search: kind, Costs: numa.ButterflyCosts(), Seed: seed})
}

// simBatch runs every search × model configuration for each trial seed
// and returns the digest records, the simulated operations, and the
// merged per-operation latency histogram. log, when set, gets a span per
// sim.Run with the model index as its argument.
func simBatch(seeds []uint64, log *spanLog) ([]simRecord, int64, *metrics.LatencyHist) {
	var recs []simRecord
	var ops int64
	lat := new(metrics.LatencyHist)
	for t, seed := range seeds {
		for _, kind := range simSearches {
			for mi, m := range simModels() {
				t0 := time.Now()
				res := simRun(m, kind, seed, m.cfg.TotalOps)
				if log != nil {
					log.add(opSimRun, t0, time.Since(t0), mi)
				}
				st := &res.Stats
				ops += st.OpCount()
				lat.Merge(&st.OpLat)
				recs = append(recs, simRecord{Trial: t, Search: kind.String(), Model: m.name,
					Makespan: res.Makespan, Adds: st.Adds, Removes: st.Removes, Steals: st.Steals, Aborts: st.Aborts})
			}
		}
	}
	return recs, ops, lat
}

// paperSim: sim.Run under the paper's protocol with ButterflyCosts, the
// three search algorithms × {random-ops at 20/50/80% adds,
// producer/consumer with 5 producers}, over seeded trial seeds. It is the
// wall time of the paper-figure reproductions and bypasses core and
// segment entirely. The simulated pool has no host-side Get to time, so
// its Get latency is the simulator's own per-operation latency on the
// modelled Butterfly (virtual µs, reported in ns).
type paperSim struct {
	seeds []uint64
	want  string // the first round's digest; later rounds must repeat it

	recs []simRecord
	lat  *metrics.LatencyHist
	log  *spanLog
}

func newPaperSim(seed uint64) *paperSim { return &paperSim{seeds: simTrialSeeds(seed)} }

func (w *paperSim) workers() int { return 1 }
func (w *paperSim) trace(logs []*spanLog) {
	w.log = nil
	if logs != nil {
		w.log = logs[0]
	}
}

func (w *paperSim) expectedOps() int64 {
	return int64(len(w.seeds) * len(simSearches) * len(simModels()) * workload.PaperTotalOps)
}

// setup builds and seeds every configuration's simulated pool: a run with
// no operation budget.
func (w *paperSim) setup() error {
	for _, kind := range simSearches {
		for _, m := range simModels() {
			simRun(m, kind, w.seeds[0], 0)
		}
	}
	return nil
}

func (w *paperSim) run() (int64, time.Duration) {
	start := time.Now()
	recs, ops, lat := simBatch(w.seeds, w.log)
	wall := time.Since(start)
	w.recs, w.lat = recs, lat
	return ops, wall
}

// latencies represents the simulated latency histogram by its quantile
// function at every 1/1000, converted from µs to ns.
func (w *paperSim) latencies() ([]float64, int64) {
	ns := make([]float64, 999)
	for i := range ns {
		ns[i] = w.lat.Quantile(float64(i+1)/1000) * 1000
	}
	return ns, w.lat.N()
}

func (w *paperSim) verify() (int64, error) {
	d := simDigest(w.recs)
	if w.want == "" {
		w.want = d
	}
	return checkDigest("paper-sim round", d, w.want, w.expectedOps())
}

// checkDigest compares a simulated digest with the one expected; a
// mismatch fails every operation the digest covers.
func checkDigest(what, got, want string, ops int64) (int64, error) {
	if got != want {
		return ops, fmt.Errorf("%s: digest %s, want %s", what, got, want)
	}
	return 0, nil
}

// checkSimReference runs the committed reference trial seeds and compares
// their digest with the committed one, naming the configurations that
// differ. It returns the simulated operations it ran and how many failed.
func checkSimReference() (ops, failed int64, err error) {
	e, err := loadSimExpected()
	if err != nil {
		return 1, 1, err
	}
	recs, ops, _ := simBatch(simTrialSeeds(e.ReferenceSeed), nil)
	failed, err = checkDigest("paper-sim reference", simDigest(recs), e.Digest, ops)
	if err != nil {
		for i, r := range recs {
			if i >= len(e.Runs) || r != e.Runs[i] {
				err = fmt.Errorf("%w; first differing run %+v", err, r)
				break
			}
		}
	}
	return ops, failed, err
}
