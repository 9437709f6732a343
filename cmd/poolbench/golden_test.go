package main

// Golden output: the full `-exp all` run, with and without -csv, pinned
// byte for byte. Every table, chart and CSV block the experiments print
// is covered, so a refactor of the rendering code must reproduce them
// exactly. After an intentional output change, regenerate with
//
//	go test ./cmd/poolbench -run TestGoldenOutput -update
//
// and review the testdata diff like any other golden update.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pools/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_all{,_csv}.txt")

// goldenArgs are the run flags the golden files were generated with,
// minus -exp and -csv.
var goldenArgs = []string{"-trials", "1", "-ops", "1000", "-depth", "1"}

func TestGoldenOutput(t *testing.T) {
	all := append([]string{"-exp", "all"}, goldenArgs...)
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"golden_all.txt", all},
		{"golden_all_csv.txt", append(all, "-csv")},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			got := []byte(out.String())
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s at line %d (regenerate with -update after an intended change)",
					path, firstDiffLine(got, want))
			}
		})
	}
}

// firstDiffLine returns the 1-based line number of the first line where
// a and b differ.
func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}

// goldenSections splits a golden file into its per-experiment sections
// ("## name — title" through the line before the next heading), keyed by
// experiment name.
func goldenSections(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for rest := string(data); rest != ""; {
		n := len(rest)
		if i := strings.Index(rest, "\n## "); i >= 0 {
			n = i + 1
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(rest[:n], "## "), " ")
		sections[name] = rest[:n]
		rest = rest[n:]
	}
	return sections
}

// checkSection runs one experiment alone at the golden configuration and
// requires its output to equal that experiment's section of the golden
// -exp all run byte for byte: experiments share no state, so running one
// in isolation must reproduce its part of the full catalog.
func checkSection(t *testing.T, name string, csv bool) {
	t.Helper()
	args := append([]string{"-exp", name}, goldenArgs...)
	file := "golden_all.txt"
	if csv {
		args = append(args, "-csv")
		file = "golden_all_csv.txt"
	}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if want := goldenSections(t, file)[name]; out.String() != want {
		t.Errorf("-exp %s output differs from its section of %s:\n%s", name, file, out.String())
	}
}

func TestRunSingleExperiment(t *testing.T)        { checkSection(t, "fig3", false) }
func TestRunCSVOutput(t *testing.T)               { checkSection(t, "fig7", true) }
func TestRunBurstExperiment(t *testing.T)         { checkSection(t, "burst", true) }
func TestRunLocalityExperiment(t *testing.T)      { checkSection(t, "locality", true) }
func TestRunHierExperiment(t *testing.T)          { checkSection(t, "hier", true) }
func TestRunKeyedLocExperiment(t *testing.T)      { checkSection(t, "keyedloc", true) }
func TestRunTenantsExperiment(t *testing.T)       { checkSection(t, "tenants", true) }
func TestRunTraceExperiment(t *testing.T)         { checkSection(t, "trace", true) }
func TestRunAppExperimentSmallDepth(t *testing.T) { checkSection(t, "app", false) }

// TestCSVExperimentsMatchGolden ties each registry entry's CSV flag (which
// the -csv help lists) to the golden output: under -csv an experiment's
// section must extend its plain section, by a CSV block exactly when the
// entry is marked CSV.
func TestCSVExperimentsMatchGolden(t *testing.T) {
	plain, withCSV := goldenSections(t, "golden_all.txt"), goldenSections(t, "golden_all_csv.txt")
	for _, e := range harness.Experiments() {
		extra, ok := strings.CutPrefix(withCSV[e.Name], plain[e.Name])
		if !ok || plain[e.Name] == "" {
			t.Errorf("%s: the -csv section does not extend the plain one", e.Name)
			continue
		}
		if got := strings.Contains(extra, ","); got != e.CSV {
			t.Errorf("%s: registry CSV = %v, but the -csv run appends a CSV block: %v", e.Name, e.CSV, got)
		}
	}
}
