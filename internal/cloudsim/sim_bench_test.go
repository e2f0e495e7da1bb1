package cloudsim

// Large-simulation benchmarks: the ROADMAP-scale fleets the hot-path
// rewrite targets. BenchmarkSimLarge* drive the optimized Run;
// BenchmarkSimLargeReference drives the preserved naive transcription on
// the identical workload, so the ratio of the two is the measured
// speedup (and allocs/op ratio the allocation reduction) recorded in
// BENCH_sim.json by `make bench-json`.

import (
	"errors"
	"slices"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
)

var benchSink units.Seconds

// benchWorkload streams a seeded EGEE-shaped workload sized to keep a
// fleet of the given slot count busy without starving the queue.
func benchWorkload(b *testing.B, seed uint64, n int, gap units.Seconds) []trace.Request {
	b.Helper()
	cfg := trace.DefaultStreamConfig(seed)
	cfg.MeanInterarrival = gap
	s, err := trace.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s.Take(n)
}

func benchSim(b *testing.B, servers, n int, gap units.Seconds,
	run func(Config, []trace.Request) (Result, error)) {
	db := sharedDB(b)
	reqs := benchWorkload(b, 99, n, gap)
	st, err := strategy.NewFirstFit(3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{DB: db, Servers: servers, Strategy: st}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Makespan
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkSimLarge is the acceptance workload: 1k servers (12k FF-3
// slots), 100k requests.
func BenchmarkSimLarge(b *testing.B) {
	benchSim(b, 1000, 100_000, 1.5, Run)
}

// BenchmarkSimLarge4k quadruples the fleet with a proportionally denser
// arrival stream.
func BenchmarkSimLarge4k(b *testing.B) {
	benchSim(b, 4000, 100_000, 0.4, Run)
}

// BenchmarkSimLargeBackfill exercises the queue-window path under the
// same load.
func BenchmarkSimLargeBackfill(b *testing.B) {
	benchSim(b, 1000, 100_000, 1.5, func(cfg Config, reqs []trace.Request) (Result, error) {
		cfg.BackfillDepth = 8
		return Run(cfg, reqs)
	})
}

// BenchmarkSimLargeReference is the pre-rewrite baseline on the
// BenchmarkSimLarge workload.
func BenchmarkSimLargeReference(b *testing.B) {
	benchSim(b, 1000, 100_000, 1.5, runReference)
}

// BenchmarkSimLargeObs is BenchmarkSimLarge with a live metrics registry
// attached; the delta against BenchmarkSimLarge is the enabled-telemetry
// overhead (the disabled overhead is pinned to zero by
// TestObsDisabledAllocFree).
func BenchmarkSimLargeObs(b *testing.B) {
	benchSim(b, 1000, 100_000, 1.5, func(cfg Config, reqs []trace.Request) (Result, error) {
		cfg.Obs = obs.NewRegistry()
		return Run(cfg, reqs)
	})
}

// BenchmarkSimLargeSampler is BenchmarkSimLarge with the fleet sampler
// attached at the default ring capacity; the delta against
// BenchmarkSimLarge is the sampler-on overhead (the sampler-off path is
// pinned allocation-free by TestObsDisabledAllocFree).
func BenchmarkSimLargeSampler(b *testing.B) {
	fs := NewFleetSampler(0)
	benchSim(b, 1000, 100_000, 1.5, func(cfg Config, reqs []trace.Request) (Result, error) {
		cfg.Sampler = fs
		return Run(cfg, reqs)
	})
}

// BenchmarkSimTrace adds the trace recorder on a smaller fleet (the
// recorder buffers every span in memory, so the large workload would
// measure the allocator, not the hooks).
func BenchmarkSimTrace(b *testing.B) {
	benchSim(b, 100, 10_000, 15, func(cfg Config, reqs []trace.Request) (Result, error) {
		cfg.Obs = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer()
		return Run(cfg, reqs)
	})
}

// benchSimShards drives the sharded parallel engine on the benchSim
// workload shape and reports the shard count alongside, so BENCH_sim
// entries carry the parallelism they were measured under (pacevm-
// benchjson lifts it, with GOMAXPROCS, into dedicated fields).
func benchSimShards(b *testing.B, servers, n int, gap units.Seconds, shards int) {
	benchSim(b, servers, n, gap, func(cfg Config, reqs []trace.Request) (Result, error) {
		return RunSharded(cfg, reqs, ShardConfig{Shards: shards})
	})
	b.ReportMetric(float64(shards), "shards")
}

// BenchmarkSimLargeShards{2,4,8} scale the BenchmarkSimLarge workload
// across shard counts. The speedup over BenchmarkSimLarge is bounded by
// the cores actually available — on a single-core runner the family
// measures the sharding overhead instead (the recorded GOMAXPROCS says
// which reading a BENCH_sim entry is).
func BenchmarkSimLargeShards2(b *testing.B) { benchSimShards(b, 1000, 100_000, 1.5, 2) }
func BenchmarkSimLargeShards4(b *testing.B) { benchSimShards(b, 1000, 100_000, 1.5, 4) }
func BenchmarkSimLargeShards8(b *testing.B) { benchSimShards(b, 1000, 100_000, 1.5, 8) }

// BenchmarkSimHuge* are the ROADMAP-scale entries: a 100k-server fleet
// under 10M requests, checking per-request cost stays flat at 100× the
// BenchmarkSimLarge fleet. Run with -benchtime 1x (see make bench-json);
// at 2x the workload alone dominates the suite.
func BenchmarkSimHuge(b *testing.B)        { benchSim(b, 100_000, 10_000_000, 0.015, Run) }
func BenchmarkSimHugeShards8(b *testing.B) { benchSimShards(b, 100_000, 10_000_000, 0.015, 8) }

// simPA builds the perfbench sim-pa workload in-process: PA-0.5 on
// 660 servers under the 100k-VM EGEE-shaped trace (σ 0.5 runtimes,
// seed 1), about 33k requests of one to four identical VMs. wrap, when
// non-nil, wraps the PA-0.5 strategy the config places with.
func simPA(b *testing.B, wrap func(*strategy.Proactive) strategy.Strategy) (Config, []trace.Request) {
	db := sharedDB(b)
	gcfg := trace.DefaultGenConfig(1)
	gcfg.Jobs = 100_000/2 + 200
	gcfg.RuntimeSigma = 0.5
	tr, err := trace.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(1)
	pcfg.TargetVMs = 100_000
	reqs, _, err := trace.Prepare(tr, pcfg)
	if err != nil {
		b.Fatal(err)
	}
	pa, err := strategy.NewProactiveConfig(core.Config{DB: db}, core.GoalBalanced)
	if err != nil {
		b.Fatal(err)
	}
	var st strategy.Strategy = pa
	if wrap != nil {
		st = wrap(pa)
	}
	return Config{DB: db, Servers: 660, Strategy: st, IdleServerPower: -1}, reqs
}

// BenchmarkSimPA is the perfbench sim-pa workload in-process (see
// simPA), each request searched once. Partition search, the fleet
// index's class query and model pricing do the work; the trace is
// prepared outside the timer.
func BenchmarkSimPA(b *testing.B) {
	cfg, reqs := simPA(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, reqs)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = res.Makespan
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// paDecision is one PA decision of a simulation: the classes and the
// request the search saw, whether the relaxed pass answered, and the
// assignment (nil when the request was left waiting).
type paDecision struct {
	classes []core.ServerClass
	vms     []core.VMRequest
	relaxed bool
	assign  []int
}

// paRecorder places through a PA strategy and records every decision.
type paRecorder struct {
	*strategy.Proactive
	log []paDecision
}

func (r *paRecorder) PlaceIndexed(idx *strategy.FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	assign, ok, _ := r.PlaceIndexedExplained(idx, vms, dst)
	return assign, ok
}

func (r *paRecorder) PlaceIndexedExplained(idx *strategy.FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool, strategy.PlaceInfo) {
	d := paDecision{vms: slices.Clone(vms)}
	for _, c := range idx.Classes(len(vms) + 1) {
		d.classes = append(d.classes, core.ServerClass{Alloc: c.Alloc, Members: slices.Clone(c.Members)})
	}
	assign, ok, info := r.Proactive.PlaceIndexedExplained(idx, vms, dst)
	d.relaxed = info.Relaxed
	if ok {
		d.assign = slices.Clone(assign)
	}
	r.log = append(r.log, d)
	return assign, ok, info
}

// BenchmarkSimPADecisions replays the decision stream of a sim-pa run
// (see simPA), recorded outside the timer, through AllocateClasses: the
// partition-search layer on the inputs the simulator really gives it,
// where BenchmarkAllocateFleet repeats one synthetic input. A decision
// the relaxed pass answered replays the failed strict pass first, and
// any assignment that differs from the recorded one fails the run.
func BenchmarkSimPADecisions(b *testing.B) {
	rec := &paRecorder{}
	cfg, reqs := simPA(b, func(pa *strategy.Proactive) strategy.Strategy {
		rec.Proactive = pa
		return rec
	})
	if _, err := Run(cfg, reqs); err != nil {
		b.Fatal(err)
	}
	strict, err := core.NewAllocator(core.Config{DB: cfg.DB})
	if err != nil {
		b.Fatal(err)
	}
	relaxed, err := core.NewAllocator(core.Config{DB: cfg.DB, RelaxQoS: true})
	if err != nil {
		b.Fatal(err)
	}
	maxVMs := 0
	for _, d := range rec.log {
		maxVMs = max(maxVMs, len(d.vms))
	}
	dst := make([]int, maxVMs)
	replay := func() {
		for k := range rec.log {
			d := &rec.log[k]
			got, _, err := strict.AllocateClasses(core.GoalBalanced, d.classes, d.vms, dst)
			if d.relaxed {
				if !errors.Is(err, core.ErrInfeasible) {
					b.Fatalf("decision %d: strict pass returned %v, recorded infeasible", k, err)
				}
				got, _, err = relaxed.AllocateClasses(core.GoalBalanced, d.classes, d.vms, dst)
			}
			switch {
			case d.assign == nil && !errors.Is(err, core.ErrInfeasible):
				b.Fatalf("decision %d: assignment %v (err %v), recorded none", k, got, err)
			case d.assign != nil && (err != nil || !slices.Equal(got, d.assign)):
				b.Fatalf("decision %d: assignment %v (err %v), recorded %v", k, got, err, d.assign)
			}
		}
	}
	replay() // warms the database's estimate memo and the allocators' context pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.log)), "ns/decision")
	b.ReportMetric(float64(len(rec.log)), "decisions")
}
