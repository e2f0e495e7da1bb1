package cloudsim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/faults"
	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// linearChecked wraps an indexed strategy and, at every decision the
// simulator takes, checks the indexed answer against the strategy's
// linear Place on the up-server view rebuilt from the index: the two
// placement paths must agree call by call, not just in aggregate.
type linearChecked struct {
	strategy.IndexedPlacer
	t   testing.TB
	log *checkLog
}

// checkLog counts the checked decisions and keeps, for each accepted
// one, the number of up servers the linear view held.
type checkLog struct {
	calls    int
	placedUp []int
}

// note counts one decision on the given view.
func (l *checkLog) note(view []strategy.Server, ok bool) {
	l.calls++
	if ok {
		l.placedUp = append(l.placedUp, len(view))
	}
}

// linearCheckedExplainer is linearChecked for a strategy that explains
// its decisions: the indexed attribution, search tallies included,
// must equal PlaceExplained's on the same view.
type linearCheckedExplainer struct {
	linearChecked
	ie strategy.IndexedExplainer
	ex strategy.Explainer
}

// checkLinear wraps st, keeping its Explainer side when it has one.
func checkLinear(t testing.TB, st strategy.Strategy, log *checkLog) strategy.Strategy {
	lc := linearChecked{IndexedPlacer: st.(strategy.IndexedPlacer), t: t, log: log}
	if ie, ok := st.(strategy.IndexedExplainer); ok {
		return linearCheckedExplainer{lc, ie, st.(strategy.Explainer)}
	}
	return lc
}

// upView is the fleet view a linear Place sees: the index's up servers
// in id order.
func upView(idx *strategy.FleetIndex) []strategy.Server {
	var view []strategy.Server
	for i := 0; i < idx.Len(); i++ {
		if !idx.Down(i) {
			view = append(view, strategy.Server{ID: i, Alloc: idx.Alloc(i)})
		}
	}
	return view
}

func (c linearChecked) PlaceIndexed(idx *strategy.FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	view := upView(idx)
	want, wantOK := c.IndexedPlacer.Place(view, vms)
	got, ok := c.IndexedPlacer.PlaceIndexed(idx, vms, dst)
	c.log.note(view, ok)
	if ok != wantOK || ok && !slices.Equal(got, want) {
		c.t.Errorf("%s decision %d: indexed %v %v, linear %v %v", c.Name(), c.log.calls, got, ok, want, wantOK)
	}
	return got, ok
}

// CanFit forwards the wrapped strategy's capacity hint, so the checked
// run skips the attempts the plain one skips; without a hint it answers
// "attempt anyway", which is how the simulator treats no hinter.
func (c linearChecked) CanFit(idx *strategy.FleetIndex, n int) (bool, bool) {
	if h, ok := c.IndexedPlacer.(strategy.CapacityHinter); ok {
		return h.CanFit(idx, n)
	}
	return true, false
}

func (c linearCheckedExplainer) PlaceIndexedExplained(idx *strategy.FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool, strategy.PlaceInfo) {
	view := upView(idx)
	want, wantOK, wantInfo := c.ex.PlaceExplained(view, vms)
	got, ok, info := c.ie.PlaceIndexedExplained(idx, vms, dst)
	c.log.note(view, ok)
	if ok != wantOK || ok && !slices.Equal(got, want) || info != wantInfo {
		c.t.Errorf("%s decision %d: indexed %v %v %+v, linear %v %v %+v",
			c.Name(), c.log.calls, got, ok, info, want, wantOK, wantInfo)
	}
	return got, ok, info
}

// faultWorkload is a seeded trace stream long enough that mid-run
// crashes hit resident VMs.
func faultWorkload(t testing.TB, seed uint64, n int) []trace.Request {
	return goldenWorkload(t, seed, n)
}

// faultSchedule generates a seeded schedule clipped to the fleet.
func faultSchedule(t testing.TB, seed uint64, servers int, horizon units.Seconds) faults.Schedule {
	t.Helper()
	s, err := faults.Generate(faults.GenConfig{
		Seed: seed, Servers: servers, MTBF: horizon / 4, MTTR: horizon / 40, Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Fatal("fault schedule came out empty; tune MTBF/horizon")
	}
	return s
}

// TestFaultRunDeterministic runs the same fault-injected configuration
// repeatedly — for each placement strategy — and requires byte-identical
// results every time.
func TestFaultRunDeterministic(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 21, 150)
	sched := faultSchedule(t, 5, 10, 40000)
	cases := []struct {
		name string
		mk   func() strategy.Strategy
	}{
		{"FF-2-indexed", func() strategy.Strategy { return ff(t, 2) }},
		{"BF-2", func() strategy.Strategy { return &strategy.BestFit{Multiplex: 2} }},
		{"PA-balanced", func() strategy.Strategy { return pa(t, core.GoalBalanced) }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			mkCfg := func() Config {
				return Config{
					DB: db, Servers: 10, Strategy: c.mk(),
					Faults:     sched,
					Checkpoint: faults.Periodic{Interval: 300},
					RecordVMs:  true,
				}
			}
			first, err := Run(mkCfg(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			if first.FaultsInjected == 0 || first.VMsKilled == 0 {
				t.Fatalf("schedule did not bite: %d faults, %d kills", first.FaultsInjected, first.VMsKilled)
			}
			for rep := 0; rep < 2; rep++ {
				again, err := Run(mkCfg(), reqs)
				if err != nil {
					t.Fatal(err)
				}
				if first.Metrics != again.Metrics {
					t.Fatalf("rep %d: Metrics diverge:\nfirst %+v\nagain %+v", rep, first.Metrics, again.Metrics)
				}
				if !reflect.DeepEqual(first.VMs, again.VMs) {
					t.Fatalf("rep %d: VMRecord streams diverge", rep)
				}
			}
		})
	}
}

// TestFaultIndexedMatchesLinear pins that indexed placement under
// faults decides as the strategies' linear Place does on the up-server
// view: every decision of FF-2, BF-2 and PA-0.5 runs through
// linearChecked under one crash schedule, with the decision recorder
// (so PA decides through PlaceIndexedExplained and its search tallies
// are compared too) and the watchdog on. Each place record's candidate
// count must be the up-server count the linear view held, and the
// wrapped run must match an unwrapped one: the check is passive.
func TestFaultIndexedMatchesLinear(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 29, 200)
	sched := faultSchedule(t, 9, 12, 50000)
	cases := []struct {
		name string
		mk   func() strategy.Strategy
	}{
		{"FF-2", func() strategy.Strategy { return ff(t, 2) }},
		{"BF-2", func() strategy.Strategy { return &strategy.BestFit{Multiplex: 2} }},
		{"PA-0.5", func() strategy.Strategy { return pa(t, core.GoalBalanced) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var log checkLog
			cfg := Config{
				DB: db, Servers: 12, Strategy: checkLinear(t, c.mk(), &log),
				Faults: sched, Checkpoint: faults.Restart{}, RecordVMs: true,
				Recorder: NewDecisionRecorder(), Watchdog: obs.NewWatchdog(64),
			}
			checked, err := Run(cfg, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if checked.FaultsInjected == 0 || checked.VMsKilled == 0 {
				t.Fatalf("schedule did not bite: %d faults, %d kills", checked.FaultsInjected, checked.VMsKilled)
			}
			if log.calls < len(reqs) {
				t.Fatalf("%d checked decisions for %d requests", log.calls, len(reqs))
			}
			if v := cfg.Watchdog.Violations(); len(v) != 0 {
				t.Errorf("watchdog violations: %v", v)
			}
			var placedUp []int
			searched := false
			for _, d := range cfg.Recorder.Decisions() {
				if d.Kind == DecisionPlace {
					placedUp = append(placedUp, d.Candidates)
					searched = searched || d.Search != nil
				}
			}
			if !slices.Equal(placedUp, log.placedUp) {
				t.Errorf("place records' candidate counts %v, up servers at those decisions %v", placedUp, log.placedUp)
			}
			if _, explains := c.mk().(strategy.Explainer); searched != explains {
				t.Errorf("place records carry search attribution: %v, want %v", searched, explains)
			}
			plain, err := Run(Config{
				DB: db, Servers: 12, Strategy: c.mk(),
				Faults: sched, Checkpoint: faults.Restart{}, RecordVMs: true,
			}, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Metrics != checked.Metrics || !reflect.DeepEqual(plain.VMs, checked.VMs) {
				t.Errorf("checked run diverges from the plain one:\nchecked %+v\nplain   %+v", checked.Metrics, plain.Metrics)
			}
		})
	}
}

// TestCrashKillsRequeuesAndRecovers crashes the only server mid-job:
// the VM dies, its redo waits out the outage, and completion lands
// after recovery — with the loss visible in every fault metric.
func TestCrashKillsRequeuesAndRecovers(t *testing.T) {
	db := sharedDB(t)
	class := workload.ClassCPU
	nominal := db.Aux().RefTime[class]
	// Solo progress rate on this hardware (nominal-seconds per second).
	est, err := db.Estimate(model.KeyFor(class, 1))
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(nominal) / float64(est.ClassTime(class))
	reqs := []trace.Request{{ID: 1, Submit: 10, Class: class, VMs: 1, NominalTime: nominal}}
	down := 10 + units.Seconds(float64(nominal)*0.5) // mid-execution
	up := down + 500
	res, err := Run(Config{
		DB: db, Servers: 1, Strategy: ff(t, 1),
		Faults:    faults.Schedule{{Server: 0, Down: down, Up: up}},
		RecordVMs: true,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected != 1 || res.VMsKilled != 1 || res.Requeues != 1 {
		t.Fatalf("faults=%d killed=%d requeues=%d, want 1/1/1",
			res.FaultsInjected, res.VMsKilled, res.Requeues)
	}
	// Restart policy: everything done before the crash is lost.
	wantLost := float64(down-10) * rate
	if diff := float64(res.WorkLost) - wantLost; diff < -1e-6 || diff > 1e-6 {
		t.Errorf("WorkLost = %v, want %v", res.WorkLost, wantLost)
	}
	if len(res.VMs) != 1 {
		t.Fatalf("%d VM records, want 1 (the kill must not retire)", len(res.VMs))
	}
	rec := res.VMs[0]
	if rec.Placed < up {
		t.Errorf("redo placed at %v, before recovery at %v", rec.Placed, up)
	}
	if rec.Submit != 10 {
		t.Errorf("redo lost the original submit time: %v", rec.Submit)
	}
	wantDone := float64(up) + float64(nominal)/rate
	if diff := float64(rec.Completion) - wantDone; diff < -1e-3 || diff > 1e-3 {
		t.Errorf("completion at %v, want ≈ %v (recovery + full redo)", rec.Completion, wantDone)
	}
	if res.DownServerSeconds <= 0 {
		t.Error("no downtime accounted")
	}
	if pct := res.AvailabilityPct(1); pct >= 100 || pct <= 0 {
		t.Errorf("AvailabilityPct = %v, want in (0,100)", pct)
	}
	if pct := res.GoodputPct(); pct >= 100 {
		t.Errorf("GoodputPct = %v, want < 100 with work lost", pct)
	}
}

// TestCheckpointSavesWork compares restart-from-scratch against a
// periodic checkpoint on the same crash: the checkpoint must lose only
// the tail past the last checkpoint, strictly less than the restart.
func TestCheckpointSavesWork(t *testing.T) {
	db := sharedDB(t)
	class := workload.ClassCPU
	nominal := db.Aux().RefTime[class]
	reqs := []trace.Request{{ID: 1, Submit: 0, Class: class, VMs: 1, NominalTime: nominal}}
	down := units.Seconds(float64(nominal) * 0.7) // off the nominal/4 checkpoint grid
	sched := faults.Schedule{{Server: 0, Down: down, Up: down + 100}}
	run := func(cp faults.CheckpointPolicy) Result {
		res, err := Run(Config{
			DB: db, Servers: 1, Strategy: ff(t, 1), Faults: sched, Checkpoint: cp,
		}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	interval := nominal / 4
	restart := run(faults.Restart{})
	periodic := run(faults.Periodic{Interval: interval})
	if restart.WorkLost <= periodic.WorkLost {
		t.Errorf("restart lost %v, periodic lost %v: checkpoint saved nothing", restart.WorkLost, periodic.WorkLost)
	}
	if periodic.WorkLost <= 0 {
		t.Error("periodic checkpoint lost no tail at all (crash sits off the checkpoint grid)")
	}
	if periodic.WorkLost >= interval+1e-6 {
		t.Errorf("periodic tail %v exceeds the checkpoint interval %v", periodic.WorkLost, interval)
	}
	if periodic.Makespan >= restart.Makespan {
		t.Errorf("periodic makespan %v not shorter than restart %v", periodic.Makespan, restart.Makespan)
	}
}

// TestDownServerDrawsNothingAndIsAvoided uses a two-server fleet whose
// second server never hosts: taking it down for the whole run must cut
// exactly its idle energy, leave placements untouched, and keep every
// placement on the up server.
func TestDownServerDrawsNothingAndIsAvoided(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 6, workload.ClassCPU, 50)
	base := func() Config {
		return Config{DB: db, Servers: 2, Strategy: ff(t, 16), MaxVMsPerServer: 16, RecordVMs: true}
	}
	plain, err := Run(base(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	cfg.Faults = faults.Schedule{{Server: 1, Down: 0, Up: 1e9}}
	faulted, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range faulted.VMs {
		if rec.Server != 0 {
			t.Fatalf("VM of job %d placed on down server %d", rec.JobID, rec.Server)
		}
	}
	if faulted.VMsKilled != 0 {
		t.Fatalf("%d VMs killed on a never-hosting server", faulted.VMsKilled)
	}
	if faulted.Makespan != plain.Makespan {
		t.Fatalf("makespan changed: %v vs %v", faulted.Makespan, plain.Makespan)
	}
	// Server 1 idled the whole span in the plain run and was powered off
	// for it in the faulted run: the energy gap is exactly idle power
	// times the span.
	wantGap := units.Watts(125).Times(plain.Makespan)
	gap := plain.Energy - faulted.Energy
	if diff := float64(gap - wantGap); diff < -1e-6 || diff > 1e-6 {
		t.Errorf("energy gap %v, want %v (idle power over the span)", gap, wantGap)
	}
	if got, want := faulted.DownServerSeconds, float64(plain.Makespan); got != want {
		t.Errorf("DownServerSeconds = %v, want %v (clamped to the span)", got, want)
	}
	if pct := faulted.AvailabilityPct(2); pct != 50 {
		t.Errorf("AvailabilityPct = %v, want 50 (one of two servers down throughout)", pct)
	}
}

// TestFaultObsCounters checks the registry view of a fault run agrees
// with the metrics, and that the consolidator path survives outages.
func TestFaultObsCounters(t *testing.T) {
	db := sharedDB(t)
	reg := obs.NewRegistry()
	reqs := faultWorkload(t, 37, 150)
	sched := faultSchedule(t, 3, 8, 40000)
	res, err := Run(Config{
		DB: db, Servers: 8, Strategy: ff(t, 2),
		Faults: sched, Checkpoint: faults.Periodic{Interval: 500},
		Consolidator: &migrate.Planner{DB: db, MigrationCost: 10}, MigrationCost: 10,
		Obs: reg,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim_faults_injected"]; got != int64(res.FaultsInjected) {
		t.Errorf("sim_faults_injected = %d, metrics say %d", got, res.FaultsInjected)
	}
	if got := snap.Counters["sim_vms_killed"]; got != int64(res.VMsKilled) {
		t.Errorf("sim_vms_killed = %d, metrics say %d", got, res.VMsKilled)
	}
	if got := snap.Counters["sim_requeues"]; got != int64(res.Requeues) {
		t.Errorf("sim_requeues = %d, metrics say %d", got, res.Requeues)
	}
}

// TestZeroFaultRunUntouched pins the strictly-additive contract beyond
// the golden suite: an empty schedule with a non-nil checkpoint policy
// changes nothing, and the fault metrics stay zero while NominalWork
// matches the reference oracle.
func TestZeroFaultRunUntouched(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 41, 100)
	want, err := RunReference(Config{DB: db, Servers: 8, Strategy: ff(t, 2), RecordVMs: true}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(Config{
		DB: db, Servers: 8, Strategy: ff(t, 2), RecordVMs: true,
		Checkpoint: faults.Periodic{Interval: 60}, // ignored without Faults
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics != got.Metrics {
		t.Errorf("Metrics diverge:\nreference %+v\noptimized %+v", want.Metrics, got.Metrics)
	}
	if !reflect.DeepEqual(want.VMs, got.VMs) {
		t.Error("VMRecord streams diverge")
	}
	if got.NominalWork <= 0 {
		t.Error("NominalWork not accumulated")
	}
	if got.FaultsInjected != 0 || got.VMsKilled != 0 || got.Requeues != 0 ||
		got.WorkLost != 0 || got.DownServerSeconds != 0 {
		t.Errorf("fault metrics moved without faults: %+v", got.Metrics)
	}
	if pct := got.AvailabilityPct(8); pct != 100 {
		t.Errorf("AvailabilityPct = %v, want 100", pct)
	}
	if pct := got.GoodputPct(); pct != 100 {
		t.Errorf("GoodputPct = %v, want 100", pct)
	}
}

// TestRunReferenceRejectsFaults pins that the frozen oracle refuses
// fault schedules instead of silently ignoring them.
func TestRunReferenceRejectsFaults(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 1, workload.ClassCPU, 0)
	_, err := RunReference(Config{
		DB: db, Servers: 1, Strategy: ff(t, 1),
		Faults: faults.Schedule{{Server: 0, Down: 1, Up: 2}},
	}, reqs)
	if err == nil || !strings.Contains(err.Error(), "does not support fault injection") {
		t.Fatalf("RunReference accepted a fault schedule: %v", err)
	}
}

// TestConfigValidate exercises the public configuration validator.
func TestConfigValidate(t *testing.T) {
	db := sharedDB(t)
	good := Config{DB: db, Servers: 2, Strategy: ff(t, 1)}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name    string
		mut     func(*Config)
		wantErr string
	}{
		{"nil db", func(c *Config) { c.DB = nil }, "nil model database"},
		{"no servers", func(c *Config) { c.Servers = 0 }, "at least one server"},
		{"nil strategy", func(c *Config) { c.Strategy = nil }, "nil strategy"},
		{"negative cap", func(c *Config) { c.MaxVMsPerServer = -2 }, "MaxVMsPerServer"},
		{"negative migration cost", func(c *Config) { c.MigrationCost = -1 }, "negative MigrationCost"},
		{"negative backfill depth", func(c *Config) { c.BackfillDepth = -1 }, "negative BackfillDepth"},
		{"fault out of range", func(c *Config) { c.Faults = faults.Schedule{{Server: 7, Down: 1, Up: 2}} }, "fault schedule"},
		{"fault overlap", func(c *Config) {
			c.Faults = faults.Schedule{{Server: 0, Down: 1, Up: 10}, {Server: 0, Down: 5, Up: 20}}
		}, "overlap"},
	}
	for _, c := range cases {
		cfg := good
		c.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: got %v, want containing %q", c.name, err, c.wantErr)
		}
	}
}
