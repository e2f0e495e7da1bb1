// Command pacevm-benchdiff compares two benchmark documents recorded by
// pacevm-benchjson and fails when throughput regressed beyond a bound:
//
//	pacevm-benchdiff -max-regress 10 old/BENCH_sim.json BENCH_sim.json
//
// Entries are matched by (name, gomaxprocs, shards) — the same key
// pacevm-benchjson folds samples under, so a result measured at 8
// shards is never compared against its monolithic sibling. Each entry
// carries the [min, max] range of its samples' ns/op (an entry recorded
// without one, or from a single sample, reads min = max = its mean).
// The printed delta is on the mean ns/op, but a change counts only when
// the two ranges are apart by more than -max-regress percent: an entry
// whose new minimum lies that far above its old maximum is a
// regression and fails the run (listing every offender, not just the
// first), and one whose new maximum lies that far below its old
// minimum is reported faster. With -advisory the offenders are still
// printed but the exit status stays zero — the mode `make bench-diff`
// uses inside verify, where the committed baseline may have been
// recorded on different hardware.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// doc mirrors the pacevm-benchjson Report; only the compared fields are
// declared (unknown JSON keys are ignored, keeping the two commands
// decoupled).
type doc struct {
	CPU        string `json:"cpu,omitempty"`
	Provenance *struct {
		GitCommit string `json:"git_commit,omitempty"`
		GoVersion string `json:"go_version,omitempty"`
		Host      string `json:"host,omitempty"`
	} `json:"provenance,omitempty"`
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Name       string  `json:"name"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Shards     int     `json:"shards,omitempty"`
	Samples    int     `json:"samples"`
	NsPerOp    float64 `json:"ns_per_op"`
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
}

// span is the entry's ns/op range: min = max = the mean for an entry
// recorded without one.
func (b bench) span() (lo, hi float64) {
	if b.MinNsPerOp <= 0 || b.MaxNsPerOp < b.MinNsPerOp {
		return b.NsPerOp, b.NsPerOp
	}
	return b.MinNsPerOp, b.MaxNsPerOp
}

type key struct {
	name          string
	procs, shards int
}

func (k key) String() string {
	s := k.name
	if k.procs > 1 {
		s += fmt.Sprintf("-%d", k.procs)
	}
	if k.shards > 0 {
		s += fmt.Sprintf(" [%d shards]", k.shards)
	}
	return s
}

func load(path string) (doc, error) {
	var d doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Benchmarks) == 0 {
		return d, fmt.Errorf("%s: no benchmarks", path)
	}
	return d, nil
}

func index(d doc) map[key]bench {
	m := make(map[key]bench, len(d.Benchmarks))
	for _, b := range d.Benchmarks {
		m[key{b.Name, b.Gomaxprocs, b.Shards}] = b
	}
	return m
}

func provLine(d doc) string {
	if d.Provenance == nil {
		return "(no provenance)"
	}
	p := d.Provenance
	commit := p.GitCommit
	if len(commit) > 12 {
		commit = commit[:12]
	}
	return fmt.Sprintf("commit %s, %s on %s", commit, p.GoVersion, p.Host)
}

func run(oldPath, newPath string, maxRegress float64, advisory bool, w io.Writer) error {
	if maxRegress <= 0 {
		return fmt.Errorf("-max-regress %g must be a positive percentage", maxRegress)
	}
	oldDoc, err := load(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := load(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s — %s\n", oldPath, provLine(oldDoc))
	fmt.Fprintf(w, "new: %s — %s\n", newPath, provLine(newDoc))

	oldIx, newIx := index(oldDoc), index(newDoc)
	keys := make([]key, 0, len(oldIx))
	for k := range oldIx {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	var regressions []string
	for _, k := range keys {
		ob := oldIx[k]
		nb, ok := newIx[k]
		if !ok {
			fmt.Fprintf(w, "%-50s only in old\n", k)
			continue
		}
		delta := (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp * 100
		oLo, oHi := ob.span()
		nLo, nHi := nb.span()
		verdict := "within spread"
		switch {
		case (nLo-oHi)/oHi*100 > maxRegress:
			verdict = "SLOWER"
			regressions = append(regressions,
				fmt.Sprintf("%s slowed %.1f%% (%.0f -> %.0f ns/op; new range [%.0f, %.0f] above old [%.0f, %.0f] by %.1f%%, limit %g%%)",
					k, delta, ob.NsPerOp, nb.NsPerOp, nLo, nHi, oLo, oHi, (nLo-oHi)/oHi*100, maxRegress))
		case (oLo-nHi)/oLo*100 > maxRegress:
			verdict = "faster"
		}
		fmt.Fprintf(w, "%-50s %14.0f -> %14.0f ns/op  %+6.1f%%  %s\n", k, ob.NsPerOp, nb.NsPerOp, delta, verdict)
	}
	for k := range newIx {
		if _, ok := oldIx[k]; !ok {
			fmt.Fprintf(w, "%-50s only in new\n", k)
		}
	}

	if len(regressions) == 0 {
		fmt.Fprintf(w, "no regression beyond %g%%\n", maxRegress)
		return nil
	}
	for _, r := range regressions {
		fmt.Fprintln(w, "REGRESSION:", r)
	}
	if advisory {
		fmt.Fprintf(w, "advisory mode: %d regressions reported, exit 0\n", len(regressions))
		return nil
	}
	return fmt.Errorf("%d benchmarks regressed beyond %g%%", len(regressions), maxRegress)
}

func main() {
	maxRegress := flag.Float64("max-regress", 10, "fail when ns/op grew by more than this percent")
	advisory := flag.Bool("advisory", false, "report regressions but exit 0 (for baselines from unlike hardware)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: pacevm-benchdiff [-max-regress pct] [-advisory] old.json new.json")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *maxRegress, *advisory, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pacevm-benchdiff:", err)
		os.Exit(1)
	}
}
