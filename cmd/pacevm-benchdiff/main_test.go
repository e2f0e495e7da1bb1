package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc marshals a doc to a temp file and returns its path.
func writeDoc(t *testing.T, name string, d doc) string {
	t.Helper()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func twoDocs(t *testing.T, oldNs, newNs float64) (string, string) {
	t.Helper()
	oldPath := writeDoc(t, "old.json", doc{Benchmarks: []bench{
		{Name: "BenchmarkSimLarge", Gomaxprocs: 1, NsPerOp: oldNs},
		{Name: "BenchmarkSimLarge", Gomaxprocs: 8, Shards: 8, NsPerOp: 4e8},
	}})
	newPath := writeDoc(t, "new.json", doc{Benchmarks: []bench{
		{Name: "BenchmarkSimLarge", Gomaxprocs: 1, NsPerOp: newNs},
		{Name: "BenchmarkSimLarge", Gomaxprocs: 8, Shards: 8, NsPerOp: 4e8},
	}})
	return oldPath, newPath
}

func TestDiffWithinBound(t *testing.T) {
	oldPath, newPath := twoDocs(t, 1e9, 1.05e9) // +5%
	var out strings.Builder
	if err := run(oldPath, newPath, 10, false, &out); err != nil {
		t.Fatalf("5%% slowdown under a 10%% bound failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no regression beyond 10%") {
		t.Errorf("missing pass line:\n%s", out.String())
	}
}

func TestDiffRegressionFails(t *testing.T) {
	oldPath, newPath := twoDocs(t, 1e9, 1.5e9) // +50%
	var out strings.Builder
	err := run(oldPath, newPath, 10, false, &out)
	if err == nil {
		t.Fatalf("50%% slowdown under a 10%% bound passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "regressed beyond 10%") {
		t.Errorf("error %q does not name the bound", err)
	}
	if !strings.Contains(out.String(), "REGRESSION: BenchmarkSimLarge slowed 50.0%") {
		t.Errorf("missing regression line:\n%s", out.String())
	}
}

// A regression in advisory mode is printed but does not fail the run —
// the wiring `make verify` uses, where the committed baseline may come
// from different hardware.
func TestDiffAdvisoryExitsClean(t *testing.T) {
	oldPath, newPath := twoDocs(t, 1e9, 2e9)
	var out strings.Builder
	if err := run(oldPath, newPath, 10, true, &out); err != nil {
		t.Fatalf("advisory mode failed: %v", err)
	}
	if !strings.Contains(out.String(), "advisory mode: 1 regressions reported") {
		t.Errorf("missing advisory note:\n%s", out.String())
	}
}

// Parallelism is part of the match key: a sharded result never compares
// against a monolithic one, and an unmatched entry is reported, not
// diffed.
func TestDiffMatchesOnParallelism(t *testing.T) {
	oldPath := writeDoc(t, "old.json", doc{Benchmarks: []bench{
		{Name: "BenchmarkSimLarge", Gomaxprocs: 8, Shards: 8, NsPerOp: 1e8},
	}})
	newPath := writeDoc(t, "new.json", doc{Benchmarks: []bench{
		{Name: "BenchmarkSimLarge", Gomaxprocs: 1, NsPerOp: 9e9},
	}})
	var out strings.Builder
	if err := run(oldPath, newPath, 10, false, &out); err != nil {
		t.Fatalf("disjoint keys must not regress: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "only in old") || !strings.Contains(out.String(), "only in new") {
		t.Errorf("unmatched entries not reported:\n%s", out.String())
	}
}

func TestDiffErrors(t *testing.T) {
	oldPath, newPath := twoDocs(t, 1, 1)
	var out strings.Builder
	if err := run(filepath.Join(t.TempDir(), "missing.json"), newPath, 10, false, &out); err == nil {
		t.Error("missing old file accepted")
	}
	if err := run(oldPath, newPath, 0, false, &out); err == nil {
		t.Error("non-positive -max-regress accepted")
	}
	empty := writeDoc(t, "empty.json", doc{})
	if err := run(oldPath, empty, 10, false, &out); err == nil || !strings.Contains(err.Error(), "no benchmarks") {
		t.Errorf("empty document error = %v", err)
	}
}

// TestDiffSpread: a change counts only when the old and new ns/op
// ranges lie apart by more than the bound; an entry recorded without a
// range reads min = max = its mean.
func TestDiffSpread(t *testing.T) {
	cases := []struct {
		name     string
		old, new bench
		verdict  string
		fails    bool
	}{
		{"overlapping ranges, mean +30%", bench{NsPerOp: 1e9, MinNsPerOp: 0.8e9, MaxNsPerOp: 1.4e9},
			bench{NsPerOp: 1.3e9, MinNsPerOp: 1.2e9, MaxNsPerOp: 1.5e9}, "within spread", false},
		{"ranges apart by under the bound", bench{NsPerOp: 1e9, MinNsPerOp: 0.9e9, MaxNsPerOp: 1.1e9},
			bench{NsPerOp: 1.25e9, MinNsPerOp: 1.15e9, MaxNsPerOp: 1.3e9}, "within spread", false},
		{"new minimum far above old maximum", bench{NsPerOp: 1e9, MinNsPerOp: 0.9e9, MaxNsPerOp: 1.1e9},
			bench{NsPerOp: 1.5e9, MinNsPerOp: 1.4e9, MaxNsPerOp: 1.6e9}, "SLOWER", true},
		{"old entry without a range", bench{NsPerOp: 1e9},
			bench{NsPerOp: 1.2e9, MinNsPerOp: 1.15e9, MaxNsPerOp: 1.3e9}, "SLOWER", true},
		{"old entry without a range, new range covers it", bench{NsPerOp: 1e9},
			bench{NsPerOp: 1.2e9, MinNsPerOp: 0.95e9, MaxNsPerOp: 1.4e9}, "within spread", false},
		{"new maximum far below old minimum", bench{NsPerOp: 1e9, MinNsPerOp: 0.9e9, MaxNsPerOp: 1.1e9},
			bench{NsPerOp: 0.6e9, MinNsPerOp: 0.5e9, MaxNsPerOp: 0.7e9}, "faster", false},
	}
	for _, c := range cases {
		c.old.Name, c.new.Name = "BenchmarkSimPA", "BenchmarkSimPA"
		oldPath := writeDoc(t, "old.json", doc{Benchmarks: []bench{c.old}})
		newPath := writeDoc(t, "new.json", doc{Benchmarks: []bench{c.new}})
		var out strings.Builder
		err := run(oldPath, newPath, 10, false, &out)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v\n%s", c.name, err, c.fails, out.String())
		}
		if !strings.Contains(out.String(), "%  "+c.verdict+"\n") {
			t.Errorf("%s: verdict %q missing:\n%s", c.name, c.verdict, out.String())
		}
	}
}
