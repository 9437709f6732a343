package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pools/internal/harness"
)

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestExperimentNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range harness.Experiments() {
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestExperimentsCatalogMatchesDocs checks docs/EXPERIMENTS.md against
// the registry: every experiment has a catalog heading (a heading like
// `fig3`–`fig6` covers the whole numbered range), and no heading names an
// experiment poolbench does not run.
func TestExperimentsCatalogMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile("(?m)^### `([a-z]+)([0-9]*)`(?:–`[a-z]+([0-9]+)`)?")
	documented := map[string]bool{}
	for _, m := range heading.FindAllStringSubmatch(string(doc), -1) {
		documented[m[1]+m[2]] = true
		if m[3] != "" {
			lo, _ := strconv.Atoi(m[2])
			hi, _ := strconv.Atoi(m[3])
			for i := lo + 1; i <= hi; i++ {
				documented[m[1]+strconv.Itoa(i)] = true
			}
		}
	}
	registered := map[string]bool{"all": true}
	for _, e := range harness.Experiments() {
		registered[e.Name] = true
		if !documented[e.Name] {
			t.Errorf("experiment %q has no catalog heading in docs/EXPERIMENTS.md", e.Name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/EXPERIMENTS.md catalogs %q, which is not a registered experiment", name)
		}
	}
}

func TestRunTraceDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out strings.Builder
	if err := run([]string{"-trace", path, "-ops", "600", "-procs", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("no write confirmation:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("dump is not Chrome trace JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("dump holds no events")
	}
	if err := run([]string{"-trace", filepath.Join(path, "nope", "out.json")}, &out); err == nil {
		t.Error("uncreatable trace path accepted")
	}
}

func TestRunDebugAddr(t *testing.T) {
	var out strings.Builder
	// No -serve: the server closes as soon as the run completes; the test
	// only pins that the address line and the final summary render.
	if err := run([]string{"-debug-addr", "127.0.0.1:0", "-ops", "2000", "-procs", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"introspection: http://127.0.0.1:", "run complete", "ops=2000"} {
		if !strings.Contains(got, want) {
			t.Errorf("debug-addr output missing %q:\n%s", want, got)
		}
	}
	if err := run([]string{"-debug-addr", "256.0.0.1:bad"}, &out); err == nil {
		t.Error("unbindable debug address accepted")
	}
}
