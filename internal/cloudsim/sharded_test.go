package cloudsim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/faults"
	"pacevm/internal/migrate"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// shardedCompare requires RunSharded under sc to reproduce Run exactly:
// same Metrics, same per-VM records read from the audit.
func shardedCompare(t *testing.T, mkCfg func() Config, reqs []trace.Request, sc ShardConfig) {
	t.Helper()
	want, wantVMs := runRecords(t, Run, mkCfg(), reqs)
	got, gotVMs := runRecords(t, sharded(sc), mkCfg(), reqs)
	if want.Metrics != got.Metrics {
		t.Errorf("Metrics diverge:\nmonolithic %+v\nsharded    %+v", want.Metrics, got.Metrics)
	}
	compareRecords(t, "monolithic", wantVMs, "sharded", gotVMs)
}

// TestShardedOneShardByteIdentical pins the core equivalence claim: one
// shard replays the monolithic Run byte for byte — across strategies,
// backfill, consolidation and fault injection, and regardless of the
// window width the lazy admission uses.
func TestShardedOneShardByteIdentical(t *testing.T) {
	db := sharedDB(t)
	big := goldenWorkload(t, 11, 300)
	mid := goldenWorkload(t, 12, 150)
	small := goldenWorkload(t, 13, 60)

	cases := []struct {
		name   string
		mkCfg  func() Config
		reqs   []trace.Request
		window units.Seconds
	}{
		{"FF-2/backfill4", func() Config {
			return Config{DB: db, Servers: 12, Strategy: ff(t, 2), BackfillDepth: 4}
		}, big, 0},
		{"FF-2/window-1s", func() Config {
			return Config{DB: db, Servers: 12, Strategy: ff(t, 2), BackfillDepth: 4}
		}, big, 1},
		{"BF-2/consolidate", func() Config {
			return Config{DB: db, Servers: 10, Strategy: &strategy.BestFit{Multiplex: 2},
				Consolidator: &migrate.Planner{DB: db, MigrationCost: 10}}
		}, mid, 0},
		{"PA-energy", func() Config {
			return Config{DB: db, Servers: 8, Strategy: pa(t, core.GoalEnergy), BackfillDepth: 2}
		}, small, 0},
		{"FF-3/faults", func() Config {
			return Config{DB: db, Servers: 10, Strategy: ff(t, 3), BackfillDepth: 3,
				Faults: faultSchedule(t, 9, 10, 40000)}
		}, big, 0},
		{"FF-3/faults/window-300s", func() Config {
			return Config{DB: db, Servers: 10, Strategy: ff(t, 3), BackfillDepth: 3,
				Faults: faultSchedule(t, 9, 10, 40000)}
		}, big, 300},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			shardedCompare(t, c.mkCfg, c.reqs, ShardConfig{Shards: 1, Window: c.window})
		})
	}
}

// TestShardedOneShardTelemetryIdentical: with one shard the caller's
// telemetry handles are passed straight through, so the registry
// snapshot, audit spans and sampler series must match the monolithic
// run's exactly — not merely reconcile.
func TestShardedOneShardTelemetryIdentical(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 29, 250)
	run := func(exec func(Config) (Result, error)) (Result, obs.Snapshot, []AuditSpan, []FleetSample, units.Joules) {
		cfg := Config{
			DB: db, Servers: 10, Strategy: ff(t, 2), BackfillDepth: 3,
			Faults:  faultSchedule(t, 5, 10, 40000),
			Obs:     obs.NewRegistry(),
			Audit:   NewVMAudit(),
			Sampler: NewFleetSampler(1024),
		}
		res, err := exec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := cfg.Obs.Snapshot()
		// The event list's occupancy high-water is a property of the
		// engine, not the simulation: windowed lazy admission keeps the
		// heap a fraction of the schedule-everything-up-front size, so
		// this one gauge legitimately differs between the two paths.
		delete(snap.Gauges, "eventq_depth_highwater")
		return res, snap, cfg.Audit.Spans(), cfg.Sampler.Samples(), cfg.Sampler.TotalEnergy()
	}
	mRes, mSnap, mSpans, mSamples, mEnergy := run(func(cfg Config) (Result, error) { return Run(cfg, reqs) })
	sRes, sSnap, sSpans, sSamples, sEnergy := run(func(cfg Config) (Result, error) {
		return RunSharded(cfg, reqs, ShardConfig{Shards: 1})
	})
	if mRes.Metrics != sRes.Metrics {
		t.Errorf("Metrics diverge:\nmonolithic %+v\nsharded    %+v", mRes.Metrics, sRes.Metrics)
	}
	if !reflect.DeepEqual(mSnap, sSnap) {
		t.Errorf("registry snapshots diverge:\nmonolithic %+v\nsharded    %+v", mSnap, sSnap)
	}
	if !reflect.DeepEqual(mSpans, sSpans) {
		t.Errorf("audit spans diverge (%d vs %d spans)", len(mSpans), len(sSpans))
	}
	if !reflect.DeepEqual(mSamples, sSamples) {
		t.Errorf("sampler series diverge (%d vs %d samples)", len(mSamples), len(sSamples))
	}
	if mEnergy != sEnergy {
		t.Errorf("sampler TotalEnergy diverges: %v vs %v", mEnergy, sEnergy)
	}
}

// shardedStressConfig is the determinism workload: faults, backfill and
// consolidation all active over a 16-server fleet.
func shardedStressConfig(t *testing.T) (Config, []trace.Request) {
	t.Helper()
	db := sharedDB(t)
	cfg := Config{
		DB: db, Servers: 16, Strategy: ff(t, 2), BackfillDepth: 3,
		Consolidator: &migrate.Planner{DB: db, MigrationCost: 10},
		Faults:       faultSchedule(t, 77, 16, 60000),
	}
	return cfg, goldenWorkload(t, 21, 400)
}

// TestShardedDeterminism: at every shard count the parallel run must be
// bit-for-bit reproducible — identical Metrics and per-VM records
// across repeated executions, with the fault and consolidation paths
// active so cross-shard-adjacent machinery (re-queues, migrations,
// kills) is all exercised.
func TestShardedDeterminism(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		t.Run(string(rune('0'+shards))+"-shards", func(t *testing.T) {
			t.Parallel()
			var first Result
			var firstVMs []VMRecord
			for run := 0; run < 3; run++ {
				res, vms := runRecords(t, sharded(ShardConfig{Shards: shards}), cfg, reqs)
				if run == 0 {
					first, firstVMs = res, vms
					if res.VMsKilled == 0 || res.Requeues == 0 {
						t.Fatalf("stress config injected no kills (%+v); determinism undertested", res.Metrics)
					}
					if res.TotalJobs != len(reqs) {
						t.Fatalf("TotalJobs = %d, want %d", res.TotalJobs, len(reqs))
					}
					continue
				}
				if res.Metrics != first.Metrics {
					t.Fatalf("run %d Metrics diverge:\nfirst %+v\nthis  %+v", run, first.Metrics, res.Metrics)
				}
				if !reflect.DeepEqual(vms, firstVMs) {
					t.Fatalf("run %d VMRecords diverge", run)
				}
			}
		})
	}
}

// relErr is |a−b| relative to max(|a|,|b|), 0 when both are 0.
func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestShardedMergeReconciliation: after a multi-shard run, the merged
// telemetry must reconcile with the folded Metrics — audit span counts
// and work-lost sums, sampler energy integrals (to 1e-9 relative; the
// fold only reorders float additions), registry counters and quantile
// counts — and the merged audit's per-VM records must live in the
// global server space, in completion order.
func TestShardedMergeReconciliation(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Obs = obs.NewRegistry()
	cfg.Audit = NewVMAudit()
	cfg.Sampler = NewFleetSampler(2048)
	res, vms := runRecords(t, sharded(ShardConfig{Shards: 4}), cfg, reqs)
	if res.VMsKilled == 0 || res.Migrations == 0 {
		t.Fatalf("stress run exercised too little: %+v", res.Metrics)
	}

	if len(vms) != res.TotalVMs {
		t.Errorf("%d VMRecords for %d finished VMs", len(vms), res.TotalVMs)
	}
	for i, r := range vms {
		if r.Server < 0 || r.Server >= cfg.Servers {
			t.Fatalf("record %d server %d outside the global fleet", i, r.Server)
		}
		if i > 0 && r.Completion < vms[i-1].Completion {
			t.Fatalf("record %d out of completion order", i)
		}
	}

	// Audit reconciliation: the merged spans carry the same totals the
	// folded Metrics do, with globally unique VM uids.
	var finished, killed, requeued int
	var workLost float64
	uids := map[int]bool{}
	for _, sp := range cfg.Audit.Spans() {
		if uids[sp.VMID] {
			t.Fatalf("duplicate merged VM uid %d", sp.VMID)
		}
		uids[sp.VMID] = true
		if sp.Server < 0 || sp.Server >= cfg.Servers {
			t.Fatalf("span uid %d server %d outside the global fleet", sp.VMID, sp.Server)
		}
		switch sp.Outcome {
		case AuditFinished:
			finished++
		case AuditKilled:
			killed++
		}
		if sp.Requeued {
			requeued++
		}
		workLost += float64(sp.WorkLost)
	}
	if finished != res.TotalVMs || killed != res.VMsKilled || requeued != res.Requeues {
		t.Errorf("audit counts (finished %d, killed %d, requeued %d) != metrics (%d, %d, %d)",
			finished, killed, requeued, res.TotalVMs, res.VMsKilled, res.Requeues)
	}
	if e := relErr(workLost, float64(res.WorkLost)); e > 1e-9 {
		t.Errorf("audit work lost %v vs metrics %v (rel err %g)", workLost, res.WorkLost, e)
	}

	// Sampler reconciliation: busy + idle energy integrals fold exactly
	// per shard, so the total reconciles with the folded Metrics.Energy.
	if e := relErr(float64(cfg.Sampler.TotalEnergy()), float64(res.Energy)); e > 1e-9 {
		t.Errorf("sampler TotalEnergy %v vs Metrics.Energy %v (rel err %g)",
			cfg.Sampler.TotalEnergy(), res.Energy, e)
	}
	samples := cfg.Sampler.Samples()
	if len(samples) == 0 {
		t.Fatal("merged sampler retained no samples")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At < samples[i-1].At {
			t.Fatalf("merged sample %d out of time order", i)
		}
		if samples[i].CumEnergy < samples[i-1].CumEnergy {
			t.Fatalf("merged sample %d cumulative energy regressed", i)
		}
	}

	// Registry fold: counters sum across shards, quantile counts cover
	// every retired VM.
	snap := cfg.Obs.Snapshot()
	if snap.Counters["sim_events_popped"] == 0 || snap.Counters["sim_intervals_closed"] == 0 {
		t.Errorf("merged registry lost core counters: %+v", snap.Counters)
	}
	if got := snap.Counters["sim_vms_killed"]; got != int64(res.VMsKilled) {
		t.Errorf("merged sim_vms_killed = %d, want %d", got, res.VMsKilled)
	}
	if got := snap.Quantiles["sim_vm_wait_seconds"].Count; got != int64(res.TotalVMs) {
		t.Errorf("merged wait digest holds %d observations, want %d", got, res.TotalVMs)
	}
}

// TestShardedLoadSpread: multi-shard routing must actually distribute
// work — every shard of a dense workload should finish VMs, which the
// merged records' server ids reveal.
func TestShardedLoadSpread(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	const shards = 4
	_, vms := runRecords(t, sharded(ShardConfig{Shards: shards}), cfg, reqs)
	per := cfg.Servers / shards
	seen := make([]int, shards)
	for _, r := range vms {
		seen[r.Server/per]++
	}
	for k, n := range seen {
		if n == 0 {
			t.Errorf("shard %d finished no VMs; routing starved it (spread %v)", k, seen)
		}
	}
}

// TestShardedValidation covers the configuration rejections.
func TestShardedValidation(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 31, 20)
	base := Config{DB: db, Servers: 4, Strategy: ff(t, 2)}
	cases := []struct {
		name string
		cfg  Config
		sc   ShardConfig
	}{
		{"zero-shards", base, ShardConfig{Shards: 0}},
		{"more-shards-than-servers", base, ShardConfig{Shards: 5}},
		{"negative-window", base, ShardConfig{Shards: 2, Window: -1}},
	}
	for _, c := range cases {
		if _, err := RunSharded(c.cfg, reqs, c.sc); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	// A tracer works at any shard count: one shard takes the monolithic
	// pass-through, more get the merged cross-shard timeline.
	for _, shards := range []int{1, 2} {
		c := base
		c.Tracer = obs.NewTracer()
		if _, err := RunSharded(c, reqs, ShardConfig{Shards: shards}); err != nil {
			t.Errorf("tracer with %d shard(s) rejected: %v", shards, err)
		}
		if c.Tracer.Len() == 0 {
			t.Errorf("%d-shard run recorded no trace events", shards)
		}
	}
}

// TestShardedStealNeedsCapacityHint: a steal needs a proven misfit and
// a proven fit, which only a strategy.CapacityHinter gives, so Steal
// with any other strategy must fail naming it rather than run as if the
// option were off.
func TestShardedStealNeedsCapacityHint(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 31, 20)
	bf, err := strategy.NewBestFit(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []strategy.Strategy{pa(t, core.GoalBalanced), bf} {
		_, err := RunSharded(Config{DB: db, Servers: 4, Strategy: st}, reqs, ShardConfig{Shards: 2, Steal: true})
		if err == nil || !strings.Contains(err.Error(), st.Name()) {
			t.Errorf("%s with Steal: error %v, want one naming the strategy", st.Name(), err)
		}
	}
	if _, err := RunSharded(Config{DB: db, Servers: 4, Strategy: ff(t, 2)}, reqs, ShardConfig{Shards: 2, Steal: true}); err != nil {
		t.Errorf("FF-2 with Steal rejected: %v", err)
	}
}

// plainReq builds one hand-shaped request for the routing tests: no
// deadline, explicit nominal work, CPU class.
func plainReq(id int, at units.Seconds, vms int, nominal units.Seconds) trace.Request {
	return trace.Request{ID: id, Submit: at, Class: workload.ClassCPU, VMs: vms, NominalTime: nominal}
}

// TestShardedRouterCapacityAware: the router must prefer a shard whose
// capacity summary proves the job fits over a merely less-loaded one
// that is already full. Two one-server shards under FirstFit ×1 (four
// slots each): job 1's four tiny VMs fill shard 0, job 2's single huge
// VM lands on shard 1. Job 3 (one tiny VM) then sees shard 0 with far
// less outstanding work — the old least-load heuristic's pick — but no
// free slot; capacity-aware routing must send it to shard 1, where it
// starts the instant it is submitted.
func TestShardedRouterCapacityAware(t *testing.T) {
	db := sharedDB(t)
	reqs := []trace.Request{
		plainReq(1, 0, 4, 10),       // ties break to shard 0; fills it
		plainReq(2, 0.5, 1, 100000), // only shard 1 has slots; huge load
		plainReq(3, 1, 1, 10),       // the probe
	}
	cfg := Config{DB: db, Servers: 2, Strategy: ff(t, 1)}
	_, vms := runRecords(t, sharded(ShardConfig{Shards: 2, Window: 10}), cfg, reqs)
	found := false
	for _, r := range vms {
		if r.JobID != 3 {
			continue
		}
		found = true
		if r.Server != 1 {
			t.Errorf("job 3 hosted on server %d; capacity-aware routing should pick shard 1's server", r.Server)
		}
		if r.Placed != r.Submit {
			t.Errorf("job 3 waited %v; a free slot on shard 1 means zero wait", r.Placed-r.Submit)
		}
	}
	if !found {
		t.Fatal("job 3 retired no VM record")
	}
}

// TestShardedSteal: a queued job whose own shard provably cannot host
// it (the shard's only server is down) must be handed off at a window
// barrier once another shard can provably take it — and the handoff
// must show in the merged steal counter, shrink wait and makespan
// against the steal-off run, conserve the workload totals, and stay
// deterministic across repeats.
func TestShardedSteal(t *testing.T) {
	db := sharedDB(t)
	reqs := []trace.Request{
		plainReq(1, 0, 4, 400), // fills shard 0 until well past job 2's arrival
		plainReq(2, 200, 1, 50),
	}
	// Shard 1's server is down when job 2 arrives; the load fallback
	// routes the job there (shard 0 carries all the outstanding work),
	// where it is stuck until the distant recovery — unless stolen.
	sch := faults.Schedule{{Server: 1, Down: 100, Up: 20000}}
	run := func(steal bool) (Result, []VMRecord, int64) {
		cfg := Config{DB: db, Servers: 2, Strategy: ff(t, 1), Obs: obs.NewRegistry(), Faults: sch}
		res, vms := runRecords(t, sharded(ShardConfig{Shards: 2, Steal: steal}), cfg, reqs)
		return res, vms, cfg.Obs.Snapshot().Counters["sim_admission_steals_total"]
	}
	kept, _, keptSteals := run(false)
	stolen, stolenVMs, stolenSteals := run(true)

	if keptSteals != 0 {
		t.Errorf("steal-off run counted %d steals", keptSteals)
	}
	if stolenSteals < 1 {
		t.Errorf("steal-on run counted %d steals, want >= 1", stolenSteals)
	}
	if stolen.Metrics.AvgWait >= kept.Metrics.AvgWait {
		t.Errorf("stealing did not shrink wait: %v vs %v", stolen.Metrics.AvgWait, kept.Metrics.AvgWait)
	}
	if stolen.Metrics.Makespan >= kept.Metrics.Makespan {
		t.Errorf("stealing did not shrink makespan: %v vs %v", stolen.Metrics.Makespan, kept.Metrics.Makespan)
	}
	if stolen.Metrics.TotalJobs != kept.Metrics.TotalJobs || stolen.Metrics.TotalVMs != kept.Metrics.TotalVMs {
		t.Errorf("stealing changed workload totals: %+v vs %+v", stolen.Metrics, kept.Metrics)
	}
	for _, r := range stolenVMs {
		if r.JobID == 2 && r.Server != 0 {
			t.Errorf("stolen job hosted on server %d, want shard 0's server 0", r.Server)
		}
		if r.JobID == 2 && r.Submit != 200 {
			t.Errorf("stolen job's submit rewritten to %v; wait accounting needs the original", r.Submit)
		}
	}

	again, againVMs, _ := run(true)
	if stolen.Metrics != again.Metrics {
		t.Errorf("steal run not deterministic:\nfirst %+v\nagain %+v", stolen.Metrics, again.Metrics)
	}
	if !reflect.DeepEqual(stolenVMs, againVMs) {
		t.Error("steal run VM records not deterministic")
	}
}
