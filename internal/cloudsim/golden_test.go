package cloudsim

// Golden equivalence: the optimized Run must be byte-identical to the
// preserved naive transcription (RunReference) — same Metrics, same
// VMRecord stream — across strategies (indexed first-fit included),
// backfill depths, and the consolidator path. Any divergence means the
// hot-path rewrite changed simulation semantics, not just its cost.

import (
	"reflect"
	"strings"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// goldenWorkload derives a seeded EGEE-shaped workload dense enough to
// saturate the small golden fleets (so queueing, backfill and
// completions all trigger).
func goldenWorkload(t testing.TB, seed uint64, n int) []trace.Request {
	t.Helper()
	cfg := trace.DefaultStreamConfig(seed)
	cfg.MeanInterarrival = 30
	s, err := trace.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Take(n)
}

// goldenCompare runs both simulators on freshly-built configs (so no
// strategy state carries over between runs) and requires identical
// results.
func goldenCompare(t *testing.T, mkCfg func() Config, reqs []trace.Request) {
	t.Helper()
	refCfg := mkCfg()
	refCfg.RecordVMs = true
	want, err := RunReference(refCfg, reqs)
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	optCfg := mkCfg()
	optCfg.RecordVMs = true
	got, err := Run(optCfg, reqs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want.Metrics != got.Metrics {
		t.Errorf("Metrics diverge:\nreference %+v\noptimized %+v", want.Metrics, got.Metrics)
	}
	if !reflect.DeepEqual(want.VMs, got.VMs) {
		if len(want.VMs) != len(got.VMs) {
			t.Fatalf("VMRecord count diverges: reference %d, optimized %d", len(want.VMs), len(got.VMs))
		}
		for i := range want.VMs {
			if want.VMs[i] != got.VMs[i] {
				t.Fatalf("VMRecord %d diverges:\nreference %+v\noptimized %+v", i, want.VMs[i], got.VMs[i])
			}
		}
	}
}

func TestGoldenEquivalence(t *testing.T) {
	db := sharedDB(t)
	mk := func(s func() strategy.Strategy, servers, backfill int, consolidate bool) func() Config {
		return func() Config {
			cfg := Config{
				DB:            db,
				Servers:       servers,
				Strategy:      s(),
				BackfillDepth: backfill,
			}
			if consolidate {
				cfg.Consolidator = &migrate.Planner{DB: db, MigrationCost: 10}
				cfg.MigrationCost = 10
			}
			return cfg
		}
	}
	ffS := func(mult int) func() strategy.Strategy {
		return func() strategy.Strategy { return ff(t, mult) }
	}
	bfS := func(mult int) func() strategy.Strategy {
		return func() strategy.Strategy { return &strategy.BestFit{Multiplex: mult} }
	}
	paS := func(goal core.Goal) func() strategy.Strategy {
		return func() strategy.Strategy { return pa(t, goal) }
	}

	big := goldenWorkload(t, 11, 300)
	mid := goldenWorkload(t, 12, 150)
	small := goldenWorkload(t, 13, 60)

	cases := []struct {
		name  string
		mkCfg func() Config
		reqs  []trace.Request
	}{
		{"FF-1", mk(ffS(1), 12, 0, false), big},
		{"FF-1/backfill4", mk(ffS(1), 12, 4, false), big},
		{"FF-2", mk(ffS(2), 12, 0, false), big},
		{"FF-3/backfill2", mk(ffS(3), 8, 2, false), big},
		{"BF-2", mk(bfS(2), 10, 0, false), mid},
		{"BF-2/backfill3", mk(bfS(2), 10, 3, false), mid},
		{"PA-balanced", mk(paS(core.GoalBalanced), 8, 0, false), small},
		{"PA-energy/backfill2", mk(paS(core.GoalEnergy), 8, 2, false), small},
		{"PA-performance", mk(paS(core.GoalPerformance), 8, 0, false), small},
		{"FF-2/consolidate", mk(ffS(2), 10, 0, true), mid},
		{"FF-2/consolidate/backfill3", mk(ffS(2), 10, 3, true), mid},
		{"BF-2/consolidate", mk(bfS(2), 10, 0, true), mid},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			goldenCompare(t, c.mkCfg, c.reqs)
		})
	}
}

// TestGoldenTightAdmission pins equivalence where the admission limit —
// not the strategy cap — rejects placements, exercising the index's
// rejection path.
func TestGoldenTightAdmission(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 17, 120)
	goldenCompare(t, func() Config {
		return Config{DB: db, Servers: 6, Strategy: ff(t, 3), MaxVMsPerServer: 6, BackfillDepth: 3}
	}, reqs)
}

// TestBackfillPreservesFIFOAmongEquals is the regression for the
// drainQueue splice: equal-capacity jobs in the backfill window must
// backfill in submission order, and a successful backfill re-checks the
// head rather than restarting the window.
func TestBackfillPreservesFIFOAmongEquals(t *testing.T) {
	db := sharedDB(t)
	ref := db.Aux().RefTime[workload.ClassCPU]
	reqs := []trace.Request{
		// Fill 3 of the 4 FF-1 slots with long work.
		{ID: 1, Submit: 0, Class: workload.ClassCPU, VMs: 3, NominalTime: ref * 4, MaxResponse: ref * 40},
		// The blocker: needs all 4 slots at once.
		{ID: 2, Submit: 1, Class: workload.ClassCPU, VMs: 4, NominalTime: ref, MaxResponse: ref * 40},
		// Three interchangeable 1-VM jobs behind the blocker.
		{ID: 3, Submit: 2, Class: workload.ClassCPU, VMs: 1, NominalTime: ref, MaxResponse: ref * 40},
		{ID: 4, Submit: 3, Class: workload.ClassCPU, VMs: 1, NominalTime: ref, MaxResponse: ref * 40},
		{ID: 5, Submit: 4, Class: workload.ClassCPU, VMs: 1, NominalTime: ref, MaxResponse: ref * 40},
	}
	cfg := Config{DB: db, Servers: 1, Strategy: ff(t, 1), BackfillDepth: 4, RecordVMs: true}
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int]units.Seconds{}
	for _, vm := range res.VMs {
		if cur, ok := starts[vm.JobID]; !ok || vm.Placed < cur {
			starts[vm.JobID] = vm.Placed
		}
	}
	// The free slot goes to the earliest-submitted backfill candidate,
	// and later equals never leapfrog earlier ones.
	if !(starts[3] < starts[4] && starts[4] <= starts[5]) {
		t.Errorf("backfill broke FIFO among equal jobs: starts=%v", starts)
	}
	goldenCompare(t, func() Config { return cfg }, reqs)
}

// classlessDB builds a database that can only price CPU allocations, so
// committing a MEM VM fails at the first post-placement pricing call —
// the mid-commit accounting error of the tryPlace partial-mutation fix.
func classlessDB(t *testing.T) *model.DB {
	t.Helper()
	rec := model.Record{
		Key:       model.Key{NCPU: 1},
		Time:      100,
		AvgTimeVM: 100,
		Energy:    10000,
		MaxPower:  200,
		EDP:       units.EDP(10000, 100),
	}
	db, err := model.New([]model.Record{rec}, model.Aux{
		OSP:     [workload.NumClasses]int{1, 1, 1},
		OSE:     [workload.NumClasses]int{1, 1, 1},
		RefTime: [workload.NumClasses]units.Seconds{100, 100, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTryPlaceErrorAborts is the regression for the partial-mutation
// bug: an accounting failure after VMs were committed used to report
// "not placed" and leave the VMs on the server (double placement on
// retry). Both simulators must now abort the run with the error.
func TestTryPlaceErrorAborts(t *testing.T) {
	db := classlessDB(t)
	reqs := []trace.Request{
		{ID: 1, Submit: 0, Class: workload.ClassMEM, VMs: 1, NominalTime: 100, MaxResponse: 1000},
	}
	for name, run := range map[string]func(Config, []trace.Request) (Result, error){
		"optimized": Run, "reference": RunReference,
	} {
		_, err := run(Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
		if err == nil {
			t.Fatalf("%s: mid-commit pricing failure did not abort the run", name)
		}
		if !strings.Contains(err.Error(), "pricing") {
			t.Errorf("%s: error %q does not surface the pricing failure", name, err)
		}
	}
}
