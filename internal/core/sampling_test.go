package core

import (
	"sync"
	"testing"
	"time"

	"pools/internal/metrics"
	"pools/internal/numa"
	"pools/internal/rng"
	"pools/internal/search"
)

// timedStrides returns how many operations out of n a handle times on the
// local fast path: the first of each sampling stride.
func timedStrides(n int64) int64 { return (n + sampleStride - 1) / sampleStride }

// TestSampledStatsCountsExact runs a known mix on a stats-on pool — k
// local Put/Get pairs (k not a multiple of the stride), steals and aborts
// — and checks that every count is exact while the local fast paths are
// timed once per stride and the slow paths on every call.
func TestSampledStatsCountsExact(t *testing.T) {
	const k, steals, aborts = 1000, 5, 3
	if k%sampleStride == 0 {
		t.Fatalf("k = %d must not be a multiple of the stride %d", k, sampleStride)
	}
	p := newTestPool(t, Options{Segments: 2, Search: search.Linear, CollectStats: true})
	h0, h1 := p.Handle(0), p.Handle(1)
	for i := range k {
		h0.Put(i)
		if _, ok := h0.Get(); !ok {
			t.Fatal("local Get missed")
		}
	}
	for i := range steals {
		h1.Put(i) // local on h1, so also sampled there
		if _, ok := h0.Get(); !ok {
			t.Fatal("steal Get missed")
		}
	}
	h1.Close()
	for range aborts {
		if _, ok := h0.Get(); ok {
			t.Fatal("Get on an empty pool with one open handle should abort")
		}
	}

	st := p.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Adds", st.Adds, k + steals},
		{"Removes", st.Removes, k + steals},
		{"LocalRemoves", st.LocalRemoves, k},
		{"Steals", st.Steals, steals},
		{"Aborts", st.Aborts, aborts},
		{"AddTime.N", st.AddTime.N(), k + steals},
		{"RemoveTime.N", st.RemoveTime.N(), k + steals},
		{"OpCount", st.OpCount(), 2*(k+steals) + aborts},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}

	// Cadence: a timed local op carries the stride as its weight, a steal
	// or abort carries 1, an untimed op 0.
	s0, s1 := h0.Stats(), h1.Stats()
	if got, want := s0.AddTime.Weight(), sampleStride*timedStrides(k); got != want {
		t.Errorf("h0 add weight = %d, want %d (%d timed adds)", got, want, timedStrides(k))
	}
	if got, want := s0.RemoveTime.Weight(), sampleStride*timedStrides(k)+steals; got != want {
		t.Errorf("h0 remove weight = %d, want %d (%d timed local removes + %d steals)",
			got, want, timedStrides(k), steals)
	}
	if got, want := s1.AddTime.Weight(), sampleStride*timedStrides(steals); got != want {
		t.Errorf("h1 add weight = %d, want %d", got, want)
	}
	if got, want := st.OpLat.N(), st.AddTime.Weight()+st.RemoveTime.Weight()+aborts; got != want {
		t.Errorf("OpLat.N = %d, want the weight total %d", got, want)
	}
}

// TestSampledStatsCountsConcurrent races the per-handle stride counters:
// producers and consumers Put, Get and steal on their own handles with
// stats on, and every count in the merged and per-handle stats must match
// the calls the goroutines made.
func TestSampledStatsCountsConcurrent(t *testing.T) {
	const workers, opsPer = 4, 3000
	p := newTestPool(t, Options{Segments: workers, Search: search.Linear, CollectStats: true, Seed: 7})
	for i := range workers {
		p.Handle(i).Register()
	}
	type tally struct{ puts, gets, got, aborted int64 }
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := p.Handle(i)
			defer h.Close()
			r := rng.NewSplitMix64(rng.SubSeed(11, i))
			// Even handles mostly put, odd ones mostly get, so the odd
			// ones run dry and steal.
			putPct := uint64(30)
			if i%2 == 0 {
				putPct = 70
			}
			tl := &tallies[i]
			for range opsPer {
				if r.Next()%100 < putPct {
					h.Put(i)
					tl.puts++
					continue
				}
				tl.gets++
				if _, ok := h.Get(); ok {
					tl.got++
				} else {
					tl.aborted++
				}
			}
		}()
	}
	wg.Wait()

	var puts, gets, got, aborted int64
	for _, tl := range tallies {
		puts += tl.puts
		gets += tl.gets
		got += tl.got
		aborted += tl.aborted
	}
	st := p.Stats()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Adds", st.Adds, puts},
		{"Removes", st.Removes, got},
		{"LocalRemoves+Steals", st.LocalRemoves + st.Steals, got},
		{"Aborts", st.Aborts, aborted},
		{"AddTime.N", st.AddTime.N(), puts},
		{"RemoveTime.N", st.RemoveTime.N(), got},
		{"OpCount", st.OpCount(), puts + gets},
		{"Removes+Len", st.Removes + int64(p.Len()), puts},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if st.Steals == 0 {
		t.Error("no steals: the consumers never ran dry")
	}
	for i := range workers {
		s := p.Handle(i).Stats()
		if got, want := s.AddTime.Weight(), sampleStride*timedStrides(s.Adds); got != want {
			t.Errorf("handle %d: add weight = %d, want %d for %d local adds", i, got, want, s.Adds)
		}
		if got, want := s.RemoveTime.Weight(), sampleStride*timedStrides(s.LocalRemoves)+s.Steals; got != want {
			t.Errorf("handle %d: remove weight = %d, want %d for %d local removes and %d steals",
				i, got, want, s.LocalRemoves, s.Steals)
		}
	}
}

// TestDelayedPoolTimesEveryOp: under an active Delay the stride is 1, so
// every operation is timed with weight 1 and the mean add time includes
// the injected local add cost.
func TestDelayedPoolTimesEveryOp(t *testing.T) {
	const ops, addCost = 100, 20 // addCost virtual µs = 20 µs of wall time
	p := newTestPool(t, Options{
		Segments:     2,
		CollectStats: true,
		Delay: numa.Delayer{
			Model: numa.CostModel{AddCost: addCost, RemoveCost: 1},
			Scale: time.Microsecond,
		},
	})
	h := p.Handle(0)
	for i := range ops {
		h.Put(i)
		h.Get()
	}
	st := p.Stats()
	for _, c := range []struct {
		name string
		s    metrics.Summary
	}{{"AddTime", st.AddTime}, {"RemoveTime", st.RemoveTime}} {
		if c.s.N() != ops || c.s.Weight() != ops {
			t.Errorf("%s: N = %d, weight = %d, want %d and %d", c.name, c.s.N(), c.s.Weight(), ops, ops)
		}
	}
	if st.OpLat.N() != st.OpCount() {
		t.Errorf("OpLat.N = %d, want OpCount %d", st.OpLat.N(), st.OpCount())
	}
	if got := st.AddTime.Mean(); got < addCost {
		t.Errorf("mean add time = %.2f µs, want at least the injected %d µs", got, addCost)
	}
}
