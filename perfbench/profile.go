package main

import (
	"fmt"
	"runtime"
	"time"

	"pools/internal/keyed"
	"pools/internal/segment"
)

// perLayer are the metrics of a traced run. Each layer is measured from
// outside, through public calls and counters, on the workload that
// exercises it; README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricDef{
	{"segment.push_ns", "ns"},
	{"segment.pop_ns", "ns"},
	{"segment.steal_ns_per_elem", "ns"},
	{"core.put_ns_p50", "ns"},
	{"core.get_local_ns_p50", "ns"},
	{"core.get_local_ns_p99", "ns"},
	{"core.get_steal_ns_p50", "ns"},
	{"core.get_steal_ns_p99", "ns"},
	{"core.get_empty_ns_p50", "ns"},
	{"core.steal_frac", "ratio"},
	{"engine.examined_per_steal", "count"},
	{"engine.elems_per_steal", "count"},
	{"engine.probe_hit_ratio", "ratio"},
	{"engine.empty_gets_per_1k", "count"},
	{"metrics.stats_cost_ratio", "ratio"},
	{"keyed.get_ns_p50", "ns"},
	{"keyed.get_ns_p99", "ns"},
	{"keyed.remote_probes_per_get", "count"},
	{"keyed.miss_frac", "ratio"},
	{"keyed.allocs_per_get", "allocs/op"},
	{"sim.host_ns_per_sim_op", "ns"},
	{"sim.allocs_per_sim_op", "allocs/op"},
	{"sim.run_ms.random20", "ms"},
	{"sim.run_ms.random50", "ms"},
	{"sim.run_ms.random80", "ms"},
	{"sim.run_ms.prodcons5", "ms"},
	{"trace.throughput_ops_s", "1/s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.span_overhead_ns", "ns"},
}

// profile is one workload in the traced run, with its span logs and the
// throughputs of its untraced and traced rounds.
type profile struct {
	w                bench
	logs             []*spanLog
	untraced, traced []float64
	lastUntraced     roundResult
}

// traced is the per-layer run. It profiles every layer on its home
// workload, then alternates untraced and traced rounds of the named
// workload until the time is up, so its tracing overhead is a median of
// pairs. Spans go to spansPath as CSV.
func (rn *runner) traced(name string, seed uint64, seconds time.Duration, spansPath string) error {
	start := time.Now()
	rn.ovh = spanOverhead()
	rn.metrics["trace.span_overhead_ns"] = rn.ovh
	rn.epoch = time.Now()
	profiles := map[string]*profile{}
	for _, step := range []struct {
		name string
		fn   func(uint64) (*profile, error)
	}{
		{"tasktree", rn.profileTasktree},
		{"handoff", rn.profileHandoff},
		{"keyed-exchange", rn.profileKeyed},
		{"paper-sim", rn.profileSim},
	} {
		p, err := step.fn(seed)
		if err != nil {
			return err
		}
		profiles[step.name] = p
	}
	p := profiles[name]
	for time.Since(start) < seconds {
		if err := rn.pair(p); err != nil {
			return err
		}
	}
	rn.metrics["trace.throughput_ops_s"] = median(p.traced)
	rn.metrics["trace.overhead_ratio"] = median(p.untraced) / median(p.traced)
	fmt.Fprintf(rn.stdout, "# %s: %d untraced/traced round pairs; spans in %s\n", name, len(p.traced), spansPath)
	var all []*spanLog
	for _, n := range workloadNames {
		all = append(all, profiles[n].logs...)
	}
	return writeSpans(spansPath, all)
}

func (rn *runner) newProfile(w bench) *profile {
	p := &profile{w: w}
	for range w.workers() {
		rn.nextWorker++
		p.logs = append(p.logs, newSpanLog(rn.epoch, rn.nextWorker-1))
	}
	return p
}

// pair runs one untraced and one traced round of p's workload.
func (rn *runner) pair(p *profile) error {
	p.w.trace(nil)
	r, err := rn.round(p.w)
	if err != nil {
		return err
	}
	p.untraced = append(p.untraced, r.throughput())
	p.lastUntraced = r
	rn.nextRound++
	for _, l := range p.logs {
		l.round = rn.nextRound
	}
	p.w.trace(p.logs)
	r, err = rn.round(p.w)
	p.w.trace(nil)
	if err != nil {
		return err
	}
	p.traced = append(p.traced, r.throughput())
	p.logs[0].add(opRound, time.Now().Add(-r.wall), r.wall, 0)
	return nil
}

// net is a span statistic less the clock reads every span pays.
func (rn *runner) net(x float64) float64 { return x - rn.ovh }

func (rn *runner) profileTasktree(seed uint64) (*profile, error) {
	w := newTasktree(seed, true)
	p := rn.newProfile(w)
	if err := rn.pair(p); err != nil {
		return nil, err
	}
	w.stats = false
	off, err := rn.round(w)
	w.stats = true
	if err != nil {
		return nil, err
	}
	rn.metrics["metrics.stats_cost_ratio"] = off.throughput() / p.untraced[0]
	rn.metrics["core.put_ns_p50"] = rn.net(percentile(durs(opCorePut, p.logs...), 0.5))
	local := durs(opCoreGetLocal, p.logs...)
	rn.metrics["core.get_local_ns_p50"] = rn.net(percentile(local, 0.5))
	rn.metrics["core.get_local_ns_p99"] = rn.net(percentile(local, 0.99))

	// The segment layer alone: the tree's sequential owner sequence on a
	// bare OwnerDeque.
	l := newSpanLog(rn.epoch, rn.nextWorker)
	rn.nextWorker++
	l.round = rn.nextRound
	replayTree(w.tr, l)
	p.logs = append(p.logs, l)
	rn.metrics["segment.push_ns"] = rn.net(trimmedMean(durs(opSegPush, l)))
	rn.metrics["segment.pop_ns"] = rn.net(trimmedMean(durs(opSegPop, l)))
	return p, nil
}

// replayTree pops every task of the tree and pushes every split's
// children on one OwnerDeque, timing each call.
func replayTree(tr tree, l *spanLog) {
	var dq segment.OwnerDeque[task]
	push := func(t task) {
		t0 := time.Now()
		dq.PushBottom(t)
		l.add(opSegPush, t0, time.Since(t0), 0)
	}
	push(tr.root())
	for {
		t0 := time.Now()
		t, ok := dq.PopBottom()
		d := time.Since(t0)
		if !ok {
			return
		}
		l.add(opSegPop, t0, d, 0)
		if a, b, leaf := tr.split(t); !leaf {
			push(a)
			push(b)
		}
	}
}

func (rn *runner) profileHandoff(seed uint64) (*profile, error) {
	w := newHandoff(seed, false)
	p := rn.newProfile(w)
	if err := rn.pair(p); err != nil {
		return nil, err
	}
	steal := durs(opCoreGetSteal, p.logs...)
	rn.metrics["core.get_steal_ns_p50"] = rn.net(percentile(steal, 0.5))
	rn.metrics["core.get_steal_ns_p99"] = rn.net(percentile(steal, 0.99))
	if empty := durs(opCoreGetEmpty, p.logs...); len(empty) > 0 {
		rn.metrics["core.get_empty_ns_p50"] = rn.net(percentile(empty, 0.5))
	}
	got := calls(opCoreGetLocal, p.logs...) + calls(opCoreGetSteal, p.logs...)
	rn.metrics["core.steal_frac"] = float64(calls(opCoreGetSteal, p.logs...)) / float64(got)

	// The engine's counters need stats on; Pool.Stats is read after the
	// workers have joined.
	w.stats = true
	_, err := rn.round(w)
	w.stats = false
	if err != nil {
		return nil, err
	}
	st := w.pool.Stats()
	rn.metrics["engine.examined_per_steal"] = st.SegmentsExamined.Mean()
	rn.metrics["engine.elems_per_steal"] = st.ElementsStolen.Mean()
	rn.metrics["engine.probe_hit_ratio"] = float64(st.Steals) / float64(st.RemoteProbes)
	rn.metrics["engine.empty_gets_per_1k"] = 1000 * float64(st.Aborts) / float64(st.Removes+st.Aborts)

	l := newSpanLog(rn.epoch, rn.nextWorker)
	rn.nextWorker++
	l.round = rn.nextRound
	replayHandoff(l)
	p.logs = append(p.logs, l)
	var ns, elems float64
	for _, s := range l.ops[opSegSteal].spans {
		ns += rn.net(float64(s.dur))
		elems += float64(s.arg)
	}
	rn.metrics["segment.steal_ns_per_elem"] = ns / elems
	return p, nil
}

// replayHandoff replays the handoff on one OwnerDeque: the producer
// pushes whenever fewer than handoffInFlight elements are in flight, and
// the consumer, once its stolen reserve runs out, steals half of the
// victim with StealInto; each steal is timed.
func replayHandoff(l *spanLog) {
	var dq segment.OwnerDeque[uint64]
	buf := make([]uint64, 0, handoffInFlight)
	half := func(n int) int { return (n + 1) / 2 }
	reserve := 0
	for id := range uint64(handoffElems) {
		for dq.Len()+reserve >= handoffInFlight {
			if reserve > 0 {
				reserve--
				continue
			}
			t0 := time.Now()
			buf = dq.StealInto(buf[:0], half)
			l.add(opSegSteal, t0, time.Since(t0), len(buf))
			reserve = len(buf)
		}
		dq.PushBottom(id)
	}
}

func (rn *runner) profileKeyed(seed uint64) (*profile, error) {
	w := newKeyedExchange(seed)
	p := rn.newProfile(w)
	if err := rn.pair(p); err != nil {
		return nil, err
	}
	gets := durs(opKeyedGet, p.logs...)
	rn.metrics["keyed.get_ns_p50"] = rn.net(percentile(gets, 0.5))
	rn.metrics["keyed.get_ns_p99"] = rn.net(percentile(gets, 0.99))
	n := float64(w.gets[0] + w.gets[1])
	rn.metrics["keyed.remote_probes_per_get"] = float64(w.remote) / n
	rn.metrics["keyed.miss_frac"] = float64(w.misses[0]+w.misses[1]) / n
	rn.metrics["keyed.allocs_per_get"] = keyedAllocsPerGet(w)
	return p, nil
}

// keyedAllocsPerGet replays both keyed-exchange streams interleaved on one
// goroutine and counts the heap allocations of every 256th Get exactly,
// between two runtime.ReadMemStats calls.
func keyedAllocsPerGet(w *keyedExchange) float64 {
	p, err := keyed.New[uint32, uint64](keyed.Options{Segments: 2})
	if err != nil {
		panic(err) // the options are constant
	}
	var ms runtime.MemStats
	var allocs uint64
	var gets, sampled int64
	var next [2]int
	for j := range keyedOpsPerWorker {
		for i := range 2 {
			h, op := p.Handle(i), w.ops[i][j]
			if op.put() {
				h.Put(op.class(), keyedID(i, next[i]))
				next[i]++
				continue
			}
			if gets++; gets%256 != 0 {
				h.Get(op.class())
				continue
			}
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			h.Get(op.class())
			runtime.ReadMemStats(&ms)
			allocs += ms.Mallocs - before
			sampled++
		}
	}
	return float64(allocs) / float64(sampled)
}

func (rn *runner) profileSim(seed uint64) (*profile, error) {
	ops, failed, err := checkSimReference()
	rn.attempted += ops
	rn.failed += failed
	if err != nil {
		fmt.Fprintln(rn.stderr, "perfbench: FAILED:", err)
	}
	w := newPaperSim(seed)
	p := rn.newProfile(w)
	if err := rn.pair(p); err != nil {
		return nil, err
	}
	r := p.lastUntraced
	rn.metrics["sim.host_ns_per_sim_op"] = float64(r.wall.Nanoseconds()) / float64(r.ops)
	rn.metrics["sim.allocs_per_sim_op"] = float64(r.mallocs) / float64(r.ops)
	for mi, m := range simModels() {
		var ms []float64
		for _, s := range p.logs[0].ops[opSimRun].spans {
			if int(s.arg) == mi {
				ms = append(ms, float64(s.dur)/1e6)
			}
		}
		rn.metrics["sim.run_ms."+m.name] = median(ms)
	}
	return p, nil
}
