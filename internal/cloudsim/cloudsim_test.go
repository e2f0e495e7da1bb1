package cloudsim

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

var (
	dbOnce sync.Once
	testDB *model.DB
	dbErr  error
)

func sharedDB(t testing.TB) *model.DB {
	t.Helper()
	dbOnce.Do(func() {
		cfg := campaign.DefaultConfig()
		cfg.MaxBase = 16
		cfg.FullGridTotal = 16
		testDB, _, dbErr = campaign.Run(cfg)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

// freshDB returns a copy of the shared database with an empty estimate
// memo, for a test that needs its pricing lookups to miss: the tests
// before it warm the shared database's memo.
func freshDB(t testing.TB) *model.DB {
	t.Helper()
	db, err := model.New(sharedDB(t).Records(), sharedDB(t).Aux())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func ff(t testing.TB, mult int) strategy.Strategy {
	t.Helper()
	s, err := strategy.NewFirstFit(mult)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pa(t testing.TB, goal core.Goal) strategy.Strategy {
	t.Helper()
	s, err := strategy.NewProactive(sharedDB(t), goal)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkReqs(t *testing.T, n int, class workload.Class, gap units.Seconds) []trace.Request {
	t.Helper()
	ref := sharedDB(t).Aux().RefTime[class]
	out := make([]trace.Request, n)
	for i := range out {
		out[i] = trace.Request{
			ID:          i + 1,
			Submit:      units.Seconds(i) * gap,
			Class:       class,
			VMs:         1,
			NominalTime: ref,
			MaxResponse: ref * 3,
		}
	}
	return out
}

func TestRunValidation(t *testing.T) {
	db := sharedDB(t)
	good := mkReqs(t, 1, workload.ClassCPU, 0)
	cases := []struct {
		name string
		cfg  Config
		reqs []trace.Request
	}{
		{"nil db", Config{Servers: 1, Strategy: ff(t, 1)}, good},
		{"no servers", Config{DB: db, Strategy: ff(t, 1)}, good},
		{"nil strategy", Config{DB: db, Servers: 1}, good},
		{"no requests", Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, nil},
		{"negative cap", Config{DB: db, Servers: 1, Strategy: ff(t, 1), MaxVMsPerServer: -1}, good},
		{"bad request", Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, []trace.Request{{ID: 1, VMs: 9, NominalTime: 1}}},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg, c.reqs); err == nil {
			t.Errorf("%s: Run accepted bad input", c.name)
		}
	}
}

// placeOnly hides a strategy's PlaceIndexed, leaving the linear Place
// alone.
type placeOnly struct{ strategy.Strategy }

// TestRunRequiresIndexedPlacer pins that the simulator places through
// the fleet index only: Run and RunSharded refuse, by name, a strategy
// that has no PlaceIndexed.
func TestRunRequiresIndexedPlacer(t *testing.T) {
	cfg := Config{DB: sharedDB(t), Servers: 2, Strategy: placeOnly{ff(t, 2)}}
	reqs := mkReqs(t, 4, workload.ClassCPU, 0)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "FF-2") || !strings.Contains(err.Error(), "IndexedPlacer") {
			t.Errorf("%s: got %v, want an error naming FF-2 and IndexedPlacer", what, err)
		}
	}
	_, err := Run(cfg, reqs)
	check("Run", err)
	for _, shards := range []int{1, 2} {
		_, err := RunSharded(cfg, reqs, ShardConfig{Shards: shards})
		check(fmt.Sprintf("RunSharded with %d shard(s)", shards), err)
	}
}

func TestSingleJobSoloServer(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 1, workload.ClassCPU, 0)
	res, vms := runRecords(t, Run, Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	// Solo VM: completion ≈ the class's solo time under allocation (1,0,0).
	rec, _ := db.Lookup(model.KeyFor(workload.ClassCPU, 1))
	want := rec.ClassTime(workload.ClassCPU)
	if !units.NearlyEqual(float64(res.Makespan), float64(want), 1e-6) {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	// Energy ≈ the record's average power over that time.
	wantE := rec.AvgPower().Times(res.Makespan)
	if !units.NearlyEqual(float64(res.Energy), float64(wantE), 1e-6) {
		t.Errorf("energy = %v, want %v", res.Energy, wantE)
	}
	if res.Violations != 0 || res.TotalVMs != 1 || res.TotalJobs != 1 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
	if len(vms) != 1 || vms[0].Violated {
		t.Errorf("records = %+v", vms)
	}
	if res.PeakActiveServers != 1 {
		t.Errorf("peak active = %d", res.PeakActiveServers)
	}
	if res.ActiveServerSeconds <= 0 {
		t.Error("no active server time recorded")
	}
}

func TestQueueingWhenCloudFull(t *testing.T) {
	db := sharedDB(t)
	// 8 single-VM jobs, 1 server, FF cap 4: the last 4 must wait.
	reqs := mkReqs(t, 8, workload.ClassIO, 0)
	res, vms := runRecords(t, Run, Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	if res.AvgWait <= 0 {
		t.Error("expected queueing delay")
	}
	waited := 0
	for _, vm := range vms {
		if vm.Placed > vm.Submit {
			waited++
		}
	}
	if waited != 4 {
		t.Errorf("%d VMs waited, want 4", waited)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 10, workload.ClassCPU, 1)
	_, vms := runRecords(t, Run, Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	placed := map[int]units.Seconds{}
	for _, vm := range vms {
		placed[vm.JobID] = vm.Placed
	}
	for id := 2; id <= 10; id++ {
		if placed[id] < placed[id-1] {
			t.Errorf("job %d placed before job %d", id, id-1)
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	// Energy must equal the sum over servers of power × occupied time;
	// with a single class and FF on one server this is directly checkable
	// via the records.
	db := sharedDB(t)
	reqs := mkReqs(t, 4, workload.ClassMEM, 0)
	res, err := Run(Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := db.Lookup(model.KeyFor(workload.ClassMEM, 4))
	// All four run together from t=0 and finish together.
	wantE := rec.AvgPower().Times(res.Makespan)
	if !units.NearlyEqual(float64(res.Energy), float64(wantE), 1e-6) {
		t.Errorf("energy = %v, want %v", res.Energy, wantE)
	}
}

func TestContentionExtendsMakespan(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 12, workload.ClassCPU, 0)
	low, err := Run(Config{DB: db, Servers: 3, Strategy: ff(t, 1)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// Same jobs crammed onto one FF-3 server: heavy contention.
	high, err := Run(Config{DB: db, Servers: 3, Strategy: ff(t, 3)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if high.Makespan <= low.Makespan {
		t.Errorf("FF-3 makespan %v should exceed FF makespan %v under CPU load", high.Makespan, low.Makespan)
	}
}

func TestSLAViolationsUnderPressure(t *testing.T) {
	db := sharedDB(t)
	// Many jobs on a tiny cloud: waits blow the response bound.
	ref := db.Aux().RefTime[workload.ClassCPU]
	reqs := make([]trace.Request, 30)
	for i := range reqs {
		reqs[i] = trace.Request{
			ID: i + 1, Submit: 0, Class: workload.ClassCPU, VMs: 1,
			NominalTime: ref, MaxResponse: ref * 2,
		}
	}
	res, err := Run(Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations == 0 {
		t.Error("expected SLA violations under heavy queueing")
	}
	if pct := res.SLAViolationPct(); pct <= 0 || pct > 100 {
		t.Errorf("violation pct = %v", pct)
	}
}

func TestProactiveRunsCleanly(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 20, workload.ClassIO, 30)
	for i := range reqs {
		// Vary classes for a realistic mix.
		reqs[i].Class = workload.Classes[i%3]
		reqs[i].NominalTime = db.Aux().RefTime[reqs[i].Class]
		reqs[i].MaxResponse = reqs[i].NominalTime * 3
		reqs[i].VMs = 1 + i%4
	}
	res, vms := runRecords(t, Run, Config{DB: db, Servers: 6, Strategy: pa(t, core.GoalBalanced)}, reqs)
	total := 0
	for _, r := range reqs {
		total += r.VMs
	}
	if len(vms) != total {
		t.Errorf("recorded %d VMs, want %d", len(vms), total)
	}
	if res.Makespan <= 0 || res.Energy <= 0 {
		t.Errorf("degenerate metrics %+v", res.Metrics)
	}
}

func TestMultiVMJobStaysWholeUnderFF(t *testing.T) {
	db := sharedDB(t)
	reqs := []trace.Request{{
		ID: 1, Submit: 0, Class: workload.ClassCPU, VMs: 4,
		NominalTime: db.Aux().RefTime[workload.ClassCPU], MaxResponse: 0,
	}}
	reqs[0].MaxResponse = reqs[0].NominalTime * 5
	_, vms := runRecords(t, Run, Config{DB: db, Servers: 2, Strategy: ff(t, 1)}, reqs)
	for _, vm := range vms {
		if vm.Server != 0 {
			t.Errorf("FF scattered a job that fits server 0: %+v", vm)
		}
	}
}

func TestDeterministicSimulation(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 25, workload.ClassMEM, 13)
	run := func() Result {
		res, err := Run(Config{DB: db, Servers: 4, Strategy: pa(t, core.GoalEnergy)}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.Energy != b.Energy || a.Violations != b.Violations {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a.Metrics, b.Metrics)
	}
}

func TestMakespanSpansSubmitToCompletion(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 3, workload.ClassIO, 100)
	res, vms := runRecords(t, Run, Config{DB: db, Servers: 3, Strategy: ff(t, 1)}, reqs)
	var last units.Seconds
	for _, vm := range vms {
		if vm.Completion > last {
			last = vm.Completion
		}
	}
	if want := last - reqs[0].Submit; !units.NearlyEqual(float64(res.Makespan), float64(want), 1e-9) {
		t.Errorf("makespan %v, want %v", res.Makespan, want)
	}
}

func TestIdleServersDrawFixedFloor(t *testing.T) {
	// The paper assumes every provisioned server dissipates a fixed
	// 125 W while on; an over-dimensioned cloud therefore costs more
	// energy for the same workload (the SMALLER-vs-LARGER effect of
	// Fig. 6).
	db := sharedDB(t)
	reqs := mkReqs(t, 1, workload.ClassCPU, 0)
	small, err := Run(Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{DB: db, Servers: 50, Strategy: ff(t, 1)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := units.Watts(49 * 125).Times(big.Makespan)
	if !units.NearlyEqual(float64(big.Energy-small.Energy), float64(wantExtra), 1e-6) {
		t.Errorf("idle floor = %v, want %v", big.Energy-small.Energy, wantExtra)
	}
}

func TestPowerGatedIdleServers(t *testing.T) {
	// IdleServerPower < 0 models power-gated spares: cloud size then has
	// no energy effect for a workload that fits one server.
	db := sharedDB(t)
	reqs := mkReqs(t, 1, workload.ClassCPU, 0)
	small, err := Run(Config{DB: db, Servers: 1, Strategy: ff(t, 1), IdleServerPower: -1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{DB: db, Servers: 50, Strategy: ff(t, 1), IdleServerPower: -1}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if small.Energy != big.Energy {
		t.Errorf("power-gated spares changed energy: %v vs %v", small.Energy, big.Energy)
	}
}
