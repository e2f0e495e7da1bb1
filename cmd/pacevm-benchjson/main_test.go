package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pacevm/internal/cloudsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimLarge 	       5	 216695965 ns/op	    461482 req/s	 8023704 B/op	   18128 allocs/op
BenchmarkSimLargeReference 	       1	8977090528 ns/op	     11139 req/s	16320939552 B/op	 5708833 allocs/op
PASS
ok  	pacevm/internal/cloudsim	9.042s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.GOARCH != "amd64" || rep.Pkg != "pacevm/internal/cloudsim" {
		t.Errorf("header misparsed: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu misparsed: %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimLarge" || b.Runs != 5 {
		t.Errorf("first benchmark misparsed: %+v", b)
	}
	if b.NsPerOp != 216695965 || b.AllocsPerOp != 18128 || b.BytesPerOp != 8023704 {
		t.Errorf("standard units misparsed: %+v", b)
	}
	if b.Metrics["req/s"] != 461482 {
		t.Errorf("custom metric misparsed: %+v", b.Metrics)
	}
	if b.Gomaxprocs != 1 || b.Shards != 0 {
		t.Errorf("unsuffixed benchmark parallelism = %d procs / %d shards, want 1/0", b.Gomaxprocs, b.Shards)
	}
}

func TestParseParallelism(t *testing.T) {
	b, err := parseLine("BenchmarkSimLargeShards8-8 	       3	 90000000 ns/op	    461482 req/s	       8.000 shards	 8023704 B/op	   18128 allocs/op")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "BenchmarkSimLargeShards8" || b.Gomaxprocs != 8 {
		t.Errorf("GOMAXPROCS suffix misparsed: name %q, gomaxprocs %d", b.Name, b.Gomaxprocs)
	}
	if b.Shards != 8 {
		t.Errorf("shards metric not lifted: %d (metrics %v)", b.Shards, b.Metrics)
	}
	if _, ok := b.Metrics["shards"]; ok {
		t.Errorf("shards left behind in metrics: %v", b.Metrics)
	}
	if b.Metrics["req/s"] != 461482 {
		t.Errorf("sibling metric lost: %v", b.Metrics)
	}
	// A trailing -N that is part of the name proper (sub-benchmark with a
	// non-numeric tail, or no dash) must survive untouched.
	b2, err := parseLine("BenchmarkSimLarge/depth-0 	       5	 216695965 ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if b2.Name != "BenchmarkSimLarge/depth-0" || b2.Gomaxprocs != 1 {
		t.Errorf("zero suffix mistaken for GOMAXPROCS: %+v", b2)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX",
		"BenchmarkX 1 2",
		"BenchmarkX abc 2 ns/op",
		"BenchmarkX 1 xyz ns/op",
	} {
		if _, err := parseLine(line); err == nil {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

func TestParseEmptyInput(t *testing.T) {
	if err := run(strings.NewReader("PASS\n"), "-", nil, nil); err == nil {
		t.Error("run accepted input with no benchmark lines")
	}
}

func TestRunRejectsUnwritableOutput(t *testing.T) {
	if err := run(strings.NewReader(sample), "/proc/definitely/not/writable.json", nil, nil); err == nil {
		t.Error("unwritable output path should fail")
	}
}

// TestProvenance: the recording environment is injected by main, never
// synthesized by parse (which must stay a pure text transform), and the
// collector always knows the toolchain it was built with.
func TestProvenance(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Provenance != nil {
		t.Errorf("parse synthesized provenance: %+v", rep.Provenance)
	}

	p := collectProvenance()
	if !strings.HasPrefix(p.GoVersion, "go") {
		t.Errorf("go version %q does not look like a toolchain version", p.GoVersion)
	}

	out := filepath.Join(t.TempDir(), "bench.json")
	prov := &Provenance{GitCommit: "deadbeef", GoVersion: "go1.99", Host: "rig"}
	if err := run(strings.NewReader(sample), out, nil, prov); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Provenance == nil || *got.Provenance != *prov {
		t.Errorf("provenance round-trip = %+v, want %+v", got.Provenance, prov)
	}
}

// TestMerge: repeated result lines for one benchmark (go test -count=N)
// fold into a single entry — iterations summed, per-op values averaged
// weighted by iterations, samples counting the folded lines — while
// distinct parallelism stays distinct.
func TestMerge(t *testing.T) {
	const counted = `goos: linux
BenchmarkSimHuge 	       1	 100 ns/op	    1000 req/s
BenchmarkSimHuge 	       1	 300 ns/op	    3000 req/s
BenchmarkSimHuge-8 	       2	  50 ns/op
BenchmarkSimLarge 	       5	 200 ns/op
`
	rep, err := parse(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	merged := merge(rep.Benchmarks)
	if len(merged) != 3 {
		t.Fatalf("merged to %d entries, want 3: %+v", len(merged), merged)
	}
	h := merged[0]
	if h.Name != "BenchmarkSimHuge" || h.Gomaxprocs != 1 {
		t.Fatalf("merge reordered entries: %+v", merged)
	}
	if h.Samples != 2 || h.Runs != 2 {
		t.Errorf("folded entry carries %d samples over %d runs, want 2/2", h.Samples, h.Runs)
	}
	if h.NsPerOp != 200 {
		t.Errorf("weighted ns/op = %v, want 200", h.NsPerOp)
	}
	if h.MinNsPerOp != 100 || h.MaxNsPerOp != 300 {
		t.Errorf("folded ns/op range [%v, %v], want [100, 300]", h.MinNsPerOp, h.MaxNsPerOp)
	}
	if h.Metrics["req/s"] != 2000 {
		t.Errorf("weighted req/s = %v, want 2000", h.Metrics["req/s"])
	}
	if merged[1].Name != "BenchmarkSimHuge" || merged[1].Gomaxprocs != 8 || merged[1].Samples != 1 {
		t.Errorf("distinct GOMAXPROCS folded together: %+v", merged[1])
	}
	if l := merged[2]; l.MinNsPerOp != 200 || l.MaxNsPerOp != 200 {
		t.Errorf("single-sample ns/op range [%v, %v], want [200, 200]", l.MinNsPerOp, l.MaxNsPerOp)
	}
	if merged[2].Samples != 1 || merged[2].Runs != 5 {
		t.Errorf("singleton entry altered: %+v", merged[2])
	}
}

// TestSpreadInDocument: the emitted entry carries its samples' ns/op
// range beside the iteration-weighted mean.
func TestSpreadInDocument(t *testing.T) {
	const lines = `BenchmarkSimPA 	       2	 500 ns/op
BenchmarkSimPA 	       2	 300 ns/op
BenchmarkSimPA 	       4	 400 ns/op
`
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(strings.NewReader(lines), path, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Benchmarks []map[string]any `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("%d entries, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b["ns_per_op"] != 400.0 || b["min_ns_per_op"] != 300.0 || b["max_ns_per_op"] != 500.0 || b["samples"] != 3.0 {
		t.Errorf("entry %v, want ns/op 400 in [300, 500] over 3 samples", b)
	}
}

// TestRequire: the sampling floor fails the run when a matching
// benchmark folded too few samples or the pattern matches nothing.
func TestRequire(t *testing.T) {
	mustReq := func(s string) requirement {
		t.Helper()
		r, err := parseRequirement(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const counted = `BenchmarkSimHuge 	       1	 100 ns/op
BenchmarkSimHuge 	       1	 300 ns/op
BenchmarkSimLarge 	       5	 200 ns/op
`
	if err := run(strings.NewReader(counted), "-", []requirement{mustReq("SimHuge=2")}, nil); err != nil {
		t.Errorf("satisfied floor rejected: %v", err)
	}
	if err := run(strings.NewReader(counted), "-", []requirement{mustReq("SimLarge=2")}, nil); err == nil {
		t.Error("single-sample benchmark passed a 2-sample floor")
	}
	if err := run(strings.NewReader(counted), "-", []requirement{mustReq("SimColossal=1")}, nil); err == nil {
		t.Error("pattern matching no benchmark passed")
	}
	for _, bad := range []string{"=2", "SimHuge", "SimHuge=0", "SimHuge=x", "(=1"} {
		if _, err := parseRequirement(bad); err == nil {
			t.Errorf("parseRequirement accepted %q", bad)
		}
	}
}
