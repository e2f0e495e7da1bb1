package pacevm

// Ablation benchmarks for the modelling and search choices DESIGN.md §4
// calls out. Each reports the quality metric the choice protects via
// b.ReportMetric, so `go test -bench Ablation` shows what breaks when a
// mechanism is removed, alongside its cost.

import (
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/vmm"
	"pacevm/internal/workload"
)

// BenchmarkAblationSatPenalty contrasts the Fig.-2 base-test optimum with
// and without the oversubscription-inefficiency term: without it, fair
// sharing makes consolidation look free and the optimum drifts past the
// paper's 9 VMs toward the RAM wall.
func BenchmarkAblationSatPenalty(b *testing.B) {
	run := func(b *testing.B, sat float64) {
		cfg := campaign.DefaultConfig()
		cfg.VMM.SatPenalty = sat
		var osp int
		for i := 0; i < b.N; i++ {
			res, err := campaign.RunBaseBenchmark(cfg, workload.FFTW())
			if err != nil {
				b.Fatal(err)
			}
			osp = res.OSP
		}
		b.ReportMetric(float64(osp), "optimumVMs")
	}
	b.Run("with", func(b *testing.B) { run(b, vmm.DefaultConfig().SatPenalty) })
	b.Run("without", func(b *testing.B) { run(b, 0) })
}

// BenchmarkAblationGridBound contrasts PA-1's makespan with and without
// the per-class grid bound on a loaded cloud: unbounded, the energy goal
// packs servers past the measured optima and throughput collapses.
func BenchmarkAblationGridBound(b *testing.B) {
	ctx := sharedCtx(b)
	gcfg := trace.DefaultGenConfig(21)
	gcfg.Jobs = 700
	tr, err := trace.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(21)
	pcfg.TargetVMs = 1000
	reqs, _, err := trace.Prepare(tr, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, bound [workload.NumClasses]int) {
		pa, err := strategy.NewProactiveConfig(core.Config{DB: ctx.DB, PerClassBound: bound}, core.GoalEnergy)
		if err != nil {
			b.Fatal(err)
		}
		var makespan units.Seconds
		for i := 0; i < b.N; i++ {
			res, err := cloudsim.Run(cloudsim.Config{
				DB: ctx.DB, Servers: 7, Strategy: pa, IdleServerPower: -1,
			}, reqs)
			if err != nil {
				b.Fatal(err)
			}
			makespan = res.Makespan
		}
		b.ReportMetric(float64(makespan), "makespan_s")
	}
	b.Run("bounded", func(b *testing.B) { run(b, [workload.NumClasses]int{}) })
	b.Run("unbounded", func(b *testing.B) { run(b, [workload.NumClasses]int{-1, -1, -1}) })
}

// BenchmarkAblationPartitionDedup contrasts allocation cost for a 4-VM
// job of interchangeable VMs (the search generates only the 5 integer
// partitions among the 15 set partitions) against four distinguishable
// VMs (all 15 are distinct) — the exact reduction the paper's efficient
// set-partition generation citation is about.
func BenchmarkAblationPartitionDedup(b *testing.B) {
	ctx := sharedCtx(b)
	alloc, err := core.NewAllocator(core.Config{DB: ctx.DB})
	if err != nil {
		b.Fatal(err)
	}
	servers := make([]core.ServerState, 20)
	for i := range servers {
		servers[i] = core.ServerState{ID: i, Alloc: model.Key{NCPU: i % 2}}
	}
	ref := ctx.DB.Aux().RefTime[workload.ClassCPU]
	run := func(b *testing.B, distinct bool) {
		vms := make([]core.VMRequest, 4)
		for i := range vms {
			nom := ref
			if distinct {
				nom += units.Seconds(i) // distinct nominal times defeat dedup
			}
			vms[i] = core.VMRequest{ID: string(rune('a' + i)), Class: workload.ClassCPU, NominalTime: nom}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := alloc.Allocate(core.GoalBalanced, servers, vms); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("interchangeable", func(b *testing.B) { run(b, false) })
	b.Run("distinguishable", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationThrash contrasts the 12-VM FFTW co-location with and
// without the memory-overcommit penalty: without it, the paper's ">11
// degrades significantly" knee disappears.
func BenchmarkAblationThrash(b *testing.B) {
	run := func(b *testing.B, lin, quad float64) {
		cfg := vmm.DefaultConfig()
		cfg.ThrashLin, cfg.ThrashQuad = lin, quad
		mix := vmm.Replicate(workload.FFTW(), 12)
		var avg units.Seconds
		for i := 0; i < b.N; i++ {
			res, err := vmm.Run(cfg, mix)
			if err != nil {
				b.Fatal(err)
			}
			avg = res.AvgTimePerVM()
		}
		b.ReportMetric(float64(avg), "avgTimeVM_s")
	}
	def := vmm.DefaultConfig()
	b.Run("with", func(b *testing.B) { run(b, def.ThrashLin, def.ThrashQuad) })
	b.Run("without", func(b *testing.B) { run(b, 0, 0) })
}

// BenchmarkAblationProactiveVsFirstFitDecision compares the per-decision
// cost of the paper's brute-force allocation against first-fit — the
// price of application awareness.
func BenchmarkAblationProactiveVsFirstFitDecision(b *testing.B) {
	ctx := sharedCtx(b)
	servers := make([]strategy.Server, 66)
	for i := range servers {
		servers[i] = strategy.Server{ID: i, Alloc: model.Key{NCPU: i % 3, NIO: i % 2}}
	}
	ref := ctx.DB.Aux().RefTime[workload.ClassMEM]
	vms := make([]core.VMRequest, 4)
	for i := range vms {
		vms[i] = core.VMRequest{ID: string(rune('a' + i)), Class: workload.ClassMEM, NominalTime: ref, MaxTime: 3 * ref}
	}
	b.Run("first-fit", func(b *testing.B) {
		ff, err := strategy.NewFirstFit(2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, ok := ff.Place(servers, vms); !ok {
				b.Fatal("placement failed")
			}
		}
	})
	b.Run("proactive", func(b *testing.B) {
		pa, err := strategy.NewProactive(ctx.DB, core.GoalBalanced)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, ok := pa.Place(servers, vms); !ok {
				b.Fatal("placement failed")
			}
		}
	})
}
