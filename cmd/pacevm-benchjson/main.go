// Command pacevm-benchjson converts `go test -bench -benchmem` output
// into a machine-readable JSON document, so benchmark results can be
// committed and diffed (see `make bench-json`, which records the
// large-simulation benchmarks in BENCH_sim.json).
//
// Usage:
//
//	go test -bench Sim -benchmem ./internal/cloudsim | pacevm-benchjson -o BENCH_sim.json
//
// Repeated result lines for one benchmark (go test -count=N, or the
// same benchmark fed from several invocations) fold into a single
// entry: iteration counts sum, per-op values average weighted by
// iterations, min_ns_per_op and max_ns_per_op keep the spread of the
// lines' ns/op, and the samples field records how many lines went in —
// the per-benchmark count override that lets a heavyweight benchmark
// run -benchtime 1x -count 2 and still land as one well-sampled entry.
// A -require flag (repeatable, "regexp=minSamples") turns the sampling
// floor into a hard failure, so a recording run cannot silently commit
// a single noisy sample for an entry that needs more.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"pacevm/internal/obs"
)

// Benchmark is one parsed benchmark result line. Standard units get
// dedicated fields; any custom b.ReportMetric units land in Metrics.
// The -N name suffix go test appends when GOMAXPROCS differs from 1 is
// stripped into Gomaxprocs, and a "shards" custom metric (reported by
// the sharded-simulation benchmarks) is lifted into Shards — together
// they record the parallelism a result was measured under, which a
// req/s comparison is meaningless without.
type Benchmark struct {
	Name        string             `json:"name"`
	Gomaxprocs  int                `json:"gomaxprocs"`
	Shards      int                `json:"shards,omitempty"`
	Runs        int64              `json:"runs"`
	Samples     int                `json:"samples"`
	NsPerOp     float64            `json:"ns_per_op"`
	MinNsPerOp  float64            `json:"min_ns_per_op"`
	MaxNsPerOp  float64            `json:"max_ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Provenance is the shared recording-environment stamp (see
// obs.Provenance); pacevm-benchdiff prints it in its header, and the
// placement service reuses the same helper on /v1/stats.
type Provenance = obs.Provenance

// Report is the emitted document.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Provenance *Provenance `json:"provenance,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// collectProvenance gathers the recording environment via the shared
// cached helper. Best-effort by design: outside a git checkout (or
// without git on PATH) the commit is simply empty — parse stays pure
// and the document stays valid.
func collectProvenance() *Provenance {
	p := obs.CollectProvenance()
	return &p
}

// parse consumes go-test benchmark output and collects result lines and
// the environment header.
func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return rep, err
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}

// parseLine parses one result line:
//
//	BenchmarkName-8   12  34567 ns/op  89 B/op  1 allocs/op  2.5 req/s
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad run count in %q: %v", line, err)
	}
	b := Benchmark{Name: f[0], Gomaxprocs: 1, Runs: runs, Samples: 1}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if n, err := strconv.Atoi(b.Name[i+1:]); err == nil && n > 0 {
			b.Name, b.Gomaxprocs = b.Name[:i], n
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q in %q: %v", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp, b.MinNsPerOp, b.MaxNsPerOp = val, val, val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	if v, ok := b.Metrics["shards"]; ok {
		b.Shards = int(v)
		delete(b.Metrics, "shards")
		if len(b.Metrics) == 0 {
			b.Metrics = nil
		}
	}
	return b, nil
}

// merge folds repeated result lines for the same benchmark — same
// name, GOMAXPROCS and shard count — into one entry: iterations sum,
// per-op values become iteration-weighted averages, the ns/op range
// spans every folded line's, and samples counts the folded lines.
// First-seen order is preserved.
func merge(in []Benchmark) []Benchmark {
	type key struct {
		name          string
		procs, shards int
	}
	idx := make(map[key]int)
	out := make([]Benchmark, 0, len(in))
	for _, b := range in {
		k := key{b.Name, b.Gomaxprocs, b.Shards}
		i, seen := idx[k]
		if !seen {
			idx[k] = len(out)
			out = append(out, b)
			continue
		}
		a := &out[i]
		wa, wb := float64(a.Runs), float64(b.Runs)
		wsum := wa + wb
		avg := func(x, y float64) float64 { return (x*wa + y*wb) / wsum }
		a.NsPerOp = avg(a.NsPerOp, b.NsPerOp)
		a.MinNsPerOp = min(a.MinNsPerOp, b.MinNsPerOp)
		a.MaxNsPerOp = max(a.MaxNsPerOp, b.MaxNsPerOp)
		a.BytesPerOp = avg(a.BytesPerOp, b.BytesPerOp)
		a.AllocsPerOp = avg(a.AllocsPerOp, b.AllocsPerOp)
		for unit, v := range b.Metrics {
			if a.Metrics == nil {
				a.Metrics = map[string]float64{}
			}
			a.Metrics[unit] = avg(a.Metrics[unit], v)
		}
		a.Runs += b.Runs
		a.Samples += b.Samples
	}
	return out
}

// requirement is one parsed -require flag: every benchmark whose name
// matches pat must carry at least minSamples folded samples, and at
// least one benchmark must match.
type requirement struct {
	pat        *regexp.Regexp
	minSamples int
}

func parseRequirement(s string) (requirement, error) {
	eq := strings.LastIndex(s, "=")
	if eq <= 0 {
		return requirement{}, fmt.Errorf("bad -require %q, want regexp=minSamples", s)
	}
	n, err := strconv.Atoi(s[eq+1:])
	if err != nil || n < 1 {
		return requirement{}, fmt.Errorf("bad -require sample floor in %q", s)
	}
	pat, err := regexp.Compile(s[:eq])
	if err != nil {
		return requirement{}, fmt.Errorf("bad -require pattern in %q: %v", s, err)
	}
	return requirement{pat: pat, minSamples: n}, nil
}

func enforce(benchmarks []Benchmark, reqs []requirement) error {
	for _, r := range reqs {
		matched := false
		for _, b := range benchmarks {
			if !r.pat.MatchString(b.Name) {
				continue
			}
			matched = true
			if b.Samples < r.minSamples {
				return fmt.Errorf("benchmark %s has %d samples, -require %s wants >= %d",
					b.Name, b.Samples, r.pat, r.minSamples)
			}
		}
		if !matched {
			return fmt.Errorf("-require pattern %s matched no benchmark", r.pat)
		}
	}
	return nil
}

func run(in io.Reader, outPath string, reqs []requirement, prov *Provenance) error {
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found on input")
	}
	rep.Provenance = prov
	rep.Benchmarks = merge(rep.Benchmarks)
	if err := enforce(rep.Benchmarks, reqs); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath == "" || outPath == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(outPath, data, 0o644)
}

func main() {
	out := flag.String("o", "-", "output file ('-' for stdout)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address (e.g. :6060)")
	var requires requireFlags
	flag.Var(&requires, "require", "regexp=minSamples sampling floor (repeatable); fails if a matching benchmark folded fewer samples")
	flag.Parse()
	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacevm-benchjson:", err)
			os.Exit(1)
		}
		defer ds.Close()
		fmt.Fprintf(os.Stderr, "debug server: http://%s/debug/pprof/ and /debug/vars\n", ds.Addr())
	}
	if err := run(os.Stdin, *out, requires, collectProvenance()); err != nil {
		fmt.Fprintln(os.Stderr, "pacevm-benchjson:", err)
		os.Exit(1)
	}
}

// requireFlags accumulates repeated -require flags.
type requireFlags []requirement

func (r *requireFlags) String() string { return fmt.Sprint(len(*r), " requirements") }

func (r *requireFlags) Set(s string) error {
	req, err := parseRequirement(s)
	if err != nil {
		return err
	}
	*r = append(*r, req)
	return nil
}
