package pacevm

// One benchmark per paper table and figure (DESIGN.md §3) plus
// micro-benchmarks for the hot paths. The Fig5/Fig6/Fig7 benchmarks each
// regenerate the full Sect.-IV evaluation dataset they are views of; the
// reduced Quick scale keeps a single iteration under a second, and
// -bench flags can raise the scale through PACEVM_PAPER_SCALE=1. The
// allocation-search benchmarks (BenchmarkAllocate against its
// unoptimized reference) live in internal/core, beside the reference
// search they time.

import (
	"os"
	"sync"
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/experiments"
	"pacevm/internal/model"
	"pacevm/internal/profiler"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/vmm"
	"pacevm/internal/workload"
)

func benchConfig() experiments.Config {
	if os.Getenv("PACEVM_PAPER_SCALE") == "1" {
		return experiments.Default()
	}
	return experiments.Quick()
}

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
	benchErr  error
)

func sharedCtx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() { benchCtx, benchErr = experiments.NewContext(benchConfig()) })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCtx
}

// BenchmarkFig1 profiles the two Fig.-1 workloads (subsystem utilization
// over time for a CPU-intensive and a CPU+network-intensive workload).
func BenchmarkFig1(b *testing.B) {
	ctx := sharedCtx(b)
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2 regenerates the FFTW base-test curve (avg execution time
// per VM vs co-located VM count, optimum ≈ 9).
func BenchmarkFig2(b *testing.B) {
	ctx := sharedCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if res.OSP < 8 || res.OSP > 10 {
			b.Fatalf("Fig2 optimum drifted to %d", res.OSP)
		}
	}
}

// BenchmarkTableI regenerates the base-test parameter table (OSP/OSE/T
// per class) by re-running the base campaign.
func BenchmarkTableI(b *testing.B) {
	cfg := campaign.DefaultConfig()
	for i := 0; i < b.N; i++ {
		for _, class := range workload.Classes {
			if _, err := campaign.RunBase(cfg, class); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTableII regenerates the model database (the combined-test
// campaign over the full pricing grid).
func BenchmarkTableII(b *testing.B) {
	cfg := campaign.DefaultConfig()
	cfg.FullGridTotal = 16
	for i := 0; i < b.N; i++ {
		db, _, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() < 900 {
			b.Fatalf("grid shrank to %d records", db.Len())
		}
	}
}

// BenchmarkFig4 computes the paper's interval-accounting worked example.
func BenchmarkFig4(b *testing.B) {
	ctx := sharedCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := ctx.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		if res.ExecTimeVM1 != 1380 || res.Energy != 14250 {
			b.Fatal("Fig4 numbers drifted")
		}
	}
}

// evalBench regenerates the shared Sect.-IV evaluation dataset behind
// Figs. 5-7: six strategies × two clouds over the 10,000-VM trace (or
// the Quick-scale reduction).
func evalBench(b *testing.B, metric func(experiments.EvalResult) float64) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		ctx, err := experiments.NewContext(cfg)
		if err != nil {
			b.Fatal(err)
		}
		results, err := ctx.Evaluation()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if metric(r) < 0 {
				b.Fatal("negative metric")
			}
		}
	}
}

// BenchmarkFig5 regenerates the makespan comparison.
func BenchmarkFig5(b *testing.B) {
	evalBench(b, func(r experiments.EvalResult) float64 { return float64(r.Metrics.Makespan) })
}

// BenchmarkFig6 regenerates the energy comparison.
func BenchmarkFig6(b *testing.B) {
	evalBench(b, func(r experiments.EvalResult) float64 { return float64(r.Metrics.Energy) })
}

// BenchmarkFig7 regenerates the SLA-violation comparison.
func BenchmarkFig7(b *testing.B) {
	evalBench(b, func(r experiments.EvalResult) float64 { return r.Metrics.SLAViolationPct() })
}

// --- micro-benchmarks for hot paths ---

// BenchmarkDBLookup measures the O(log n) binary-search lookup the paper
// cites for its database.
func BenchmarkDBLookup(b *testing.B) {
	db := sharedCtx(b).DB
	keys := make([]model.Key, 0, 64)
	for _, r := range db.Records() {
		keys = append(keys, r.Key)
		if len(keys) == cap(keys) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := db.Lookup(keys[i%len(keys)]); !ok {
			b.Fatal("lookup miss")
		}
	}
}

// BenchmarkDBEstimateOffGrid measures off-grid interpolation.
func BenchmarkDBEstimateOffGrid(b *testing.B) {
	db := sharedCtx(b).DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Estimate(model.Key{NCPU: 10, NMEM: 9, NIO: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallel measures the full benchmarking campaign
// (base tests plus the complete Table-II pricing grid) through the
// worker-pool harness sized to the machine.
func BenchmarkCampaignParallel(b *testing.B) {
	cfg := campaign.DefaultConfig()
	cfg.FullGridTotal = 16
	cfg.Workers = 0 // one worker per CPU
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, _, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if db.Len() < 900 {
			b.Fatalf("grid shrank to %d records", db.Len())
		}
	}
}

// BenchmarkHypervisorRun measures one 12-VM mixed co-location experiment
// in the hypervisor simulator.
func BenchmarkHypervisorRun(b *testing.B) {
	cfg := vmm.DefaultConfig()
	mix := vmm.Mix(4, 4, 4)
	for i := 0; i < b.N; i++ {
		if _, err := vmm.Run(cfg, mix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiler measures one full application-profiling pass.
func BenchmarkProfiler(b *testing.B) {
	pcfg := profiler.DefaultConfig()
	vcfg := vmm.DefaultConfig()
	bench := workload.MPINet()
	for i := 0; i < b.N; i++ {
		if _, err := profiler.Run(pcfg, vcfg, bench); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCloudsimFF measures the datacenter simulator's event loop
// under first-fit on a 1,000-VM trace.
func BenchmarkCloudsimFF(b *testing.B) {
	db := sharedCtx(b).DB
	gcfg := trace.DefaultGenConfig(9)
	gcfg.Jobs = 700
	tr, err := trace.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(9)
	pcfg.TargetVMs = 1000
	reqs, _, err := trace.Prepare(tr, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	ff, err := strategy.NewFirstFit(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cloudsim.Run(cloudsim.Config{DB: db, Servers: 10, Strategy: ff, IdleServerPower: -1}, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracePipeline measures SWF generation plus the full
// preprocessing pipeline for a 1,000-VM workload.
func BenchmarkTracePipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gcfg := trace.DefaultGenConfig(uint64(i))
		gcfg.Jobs = 700
		tr, err := trace.Generate(gcfg)
		if err != nil {
			b.Fatal(err)
		}
		pcfg := trace.DefaultPrepConfig(uint64(i))
		pcfg.TargetVMs = 1000
		if _, _, err := trace.Prepare(tr, pcfg); err != nil {
			b.Fatal(err)
		}
	}
}
