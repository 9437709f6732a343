package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/papersim_expected.json from a fresh simulation")

// TestPaperSimExpected pins the committed paper-sim digest: the reference
// trial seeds must reproduce it. Run with -update after a deliberate change
// to the simulated protocol.
func TestPaperSimExpected(t *testing.T) {
	e, err := loadSimExpected()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := simBatch(simTrialSeeds(e.ReferenceSeed), nil)
	if *update {
		e.Digest, e.Runs = simDigest(recs), recs
		b, err := json.MarshalIndent(e, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/papersim_expected.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if _, failed, err := checkSimReference(); err != nil || failed != 0 {
		t.Fatalf("reference digest: %d failed: %v", failed, err)
	}
}
