package introspect

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pools/internal/metrics"
	"pools/internal/trace"
)

// stubSource is a canned run: fixed stats and one short two-handle
// timeline, mutable under a lock so the concurrency test can write while
// handlers read.
type stubSource struct {
	mu  sync.Mutex
	st  metrics.PoolStats
	tls []trace.Timeline
}

func (s *stubSource) Stats() metrics.PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

func (s *stubSource) Timelines() []trace.Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]trace.Timeline, len(s.tls))
	copy(out, s.tls)
	return out
}

func (s *stubSource) Timeline(h int) trace.Timeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h < 0 || h >= len(s.tls) {
		return trace.Timeline{Handle: h}
	}
	return s.tls[h]
}

func newStub() *stubSource {
	s := &stubSource{}
	s.st.RecordAdd(10, 1)
	s.st.RecordStealRemove(40, 3, 2)
	s.tls = []trace.Timeline{
		{Handle: 0, Events: []trace.Event{
			{TS: 1, Kind: trace.SearchBegin, Arg1: 1},
			{TS: 5, Kind: trace.ReserveTransfer, Arg1: 1, Arg2: 2},
			{TS: 9, Kind: trace.SearchEnd, Arg1: 2, Arg2: 1},
		}},
		{Handle: 1, Events: []trace.Event{
			{TS: 3, Kind: trace.ProbeNear, Arg1: 0},
		}},
	}
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", newStub())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	if code, body := get(t, base+"/stats"); code != 200 || !strings.Contains(body, "ops=2") {
		t.Errorf("/stats = %d %q, want 200 with ops=2", code, body)
	}

	code, body := get(t, base+"/debug/vars")
	if code != 200 || !strings.Contains(body, "poolstats") {
		t.Fatalf("/debug/vars = %d, want 200 mentioning poolstats", code)
	}
	var vars struct {
		Poolstats struct {
			Ops               int64   `json:"ops"`
			Steals            int64   `json:"steals"`
			StealInterference float64 `json:"steal_interference"`
			CrossProbeFrac    float64 `json:"cross_probe_frac"`
			P99               float64 `json:"oplat_p99_us"`
			Summary           string  `json:"summary"`
		} `json:"poolstats"`
	}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars.Poolstats.Ops != 2 || vars.Poolstats.Steals != 1 {
		t.Errorf("poolstats = %+v, want ops=2 steals=1", vars.Poolstats)
	}
	if vars.Poolstats.Summary == "" {
		t.Error("poolstats.summary missing")
	}

	code, body = get(t, base+"/trace")
	if code != 200 {
		t.Fatalf("/trace = %d, want 200", code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace is not Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/trace returned no events")
	}

	if code, body := get(t, base+"/trace?handle=1"); code != 200 || !strings.Contains(body, "probe_near") {
		t.Errorf("/trace?handle=1 = %d, want 200 containing probe_near", code)
	}
	if code, _ := get(t, base+"/trace?handle=bogus"); code != http.StatusBadRequest {
		t.Errorf("/trace?handle=bogus = %d, want 400", code)
	}
	if code, body := get(t, base+"/trace?format=csv"); code != 200 || !strings.HasPrefix(body, "ts,handle,event,arg1,arg2") {
		t.Errorf("/trace?format=csv = %d %q, want CSV header", code, body[:min(len(body), 40)])
	}

	if code, _ := get(t, base+"/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d, want 200", code)
	}
	if code, body := get(t, base+"/"); code != 200 || !strings.Contains(body, "/debug/pprof/") {
		t.Errorf("/ = %d, want 200 index", code)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Errorf("/nope = %d, want 404", code)
	}
}

// TestConcurrentReads hammers the endpoints from several goroutines
// while the source mutates, for the race detector's benefit.
func TestConcurrentReads(t *testing.T) {
	stub := newStub()
	srv, err := Serve("127.0.0.1:0", stub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Mutate at a bounded pace: an unthrottled append loop grows the
		// timeline so fast that each /trace dump (which serializes the
		// whole thing) degenerates quadratically under the race detector.
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			stub.mu.Lock()
			stub.st.RecordAdd(5, 1)
			if len(stub.tls[0].Events) < 1000 {
				stub.tls[0].Events = append(stub.tls[0].Events,
					trace.Event{TS: 100, Kind: trace.Feedback})
			}
			stub.mu.Unlock()
		}
	}()

	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for j := 0; j < 20; j++ {
				for _, p := range []string{"/stats", "/debug/vars", "/trace", "/trace?handle=0"} {
					// Plain errors only: t.Fatalf must not run off the
					// test goroutine.
					resp, err := http.Get(base + p)
					if err != nil {
						t.Errorf("GET %s: %v", p, err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("GET %s = %d under load", p, resp.StatusCode)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
