package cloudsim

import (
	"reflect"
	"strings"
	"testing"

	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// fragmentingReqs builds a workload that leaves stragglers: pairs of
// jobs arrive together, one short and one long, so after the short ones
// finish the cloud is fragmented — consolidation territory.
func fragmentingReqs(t *testing.T, pairs int) []trace.Request {
	t.Helper()
	db := sharedDB(t)
	ref := db.Aux().RefTime[workload.ClassIO]
	var reqs []trace.Request
	for i := 0; i < pairs; i++ {
		at := units.Seconds(i * 40)
		reqs = append(reqs,
			trace.Request{ID: 2*i + 1, Submit: at, Class: workload.ClassIO, VMs: 1,
				NominalTime: ref / 4, MaxResponse: ref * 5},
			trace.Request{ID: 2*i + 2, Submit: at, Class: workload.ClassIO, VMs: 1,
				NominalTime: ref * 2, MaxResponse: ref * 20},
		)
	}
	return reqs
}

func TestConsolidatorMigratesAndSaves(t *testing.T) {
	db := sharedDB(t)
	reqs := fragmentingReqs(t, 6)

	base := Config{DB: db, Servers: 12, Strategy: ff(t, 1), IdleServerPower: -1}
	plain, err := Run(base, reqs)
	if err != nil {
		t.Fatal(err)
	}

	withCons := base
	withCons.Consolidator = &migrate.Planner{DB: db, MigrationCost: 10}
	cons, err := Run(withCons, reqs)
	if err != nil {
		t.Fatal(err)
	}

	if cons.Migrations == 0 {
		t.Fatal("consolidator never migrated on a fragmenting workload")
	}
	if cons.ServersDrained == 0 {
		t.Error("no servers drained")
	}
	if plain.Migrations != 0 {
		t.Error("plain run reported migrations")
	}
	// Consolidation powers stragglers' servers down: energy must drop.
	if cons.Energy >= plain.Energy {
		t.Errorf("consolidated energy %v not below plain %v", cons.Energy, plain.Energy)
	}
	// Everyone still finishes.
	if cons.TotalVMs != plain.TotalVMs {
		t.Errorf("consolidated run lost VMs: %d vs %d", cons.TotalVMs, plain.TotalVMs)
	}
}

func TestConsolidatorRespectsQoSBudgets(t *testing.T) {
	db := sharedDB(t)
	reqs := fragmentingReqs(t, 6)
	cfg := Config{
		DB: db, Servers: 12, Strategy: ff(t, 1), IdleServerPower: -1,
		Consolidator: &migrate.Planner{DB: db, MigrationCost: 10},
	}
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	// The workload's deadlines are generous; consolidation must not
	// create violations.
	if res.Violations != 0 {
		t.Errorf("consolidation caused %d violations", res.Violations)
	}
}

// badConsolidator returns moves referencing VMs that do not exist.
type badConsolidator struct{}

func (badConsolidator) Propose(allocs []model.Key, vms []migrate.VM) (migrate.Plan, error) {
	return migrate.Plan{Moves: []migrate.Move{{VMID: -1, From: 0, To: 1}}}, nil
}

func TestBadConsolidatorIsAnError(t *testing.T) {
	db := sharedDB(t)
	reqs := fragmentingReqs(t, 2)
	cfg := Config{DB: db, Servers: 4, Strategy: ff(t, 1), Consolidator: badConsolidator{}}
	if _, err := Run(cfg, reqs); err == nil {
		t.Error("invalid consolidator moves should abort the simulation")
	}
}

// negCostConsolidator proposes one valid move priced at a negative
// migration cost, which would hand the moved VM free work.
type negCostConsolidator struct{}

func (negCostConsolidator) Propose(allocs []model.Key, vms []migrate.VM) (migrate.Plan, error) {
	to := (vms[0].Server + 1) % len(allocs)
	return migrate.Plan{Moves: []migrate.Move{{VMID: vms[0].ID, From: vms[0].Server, To: to}}, MigrationCost: -1}, nil
}

func TestNegativeMigrationCostIsAnError(t *testing.T) {
	cfg := Config{DB: sharedDB(t), Servers: 4, Strategy: ff(t, 1), Consolidator: negCostConsolidator{}}
	_, err := Run(cfg, fragmentingReqs(t, 2))
	if err == nil || !strings.Contains(err.Error(), "negative MigrationCost") {
		t.Errorf("a plan with a negative migration cost ran: %v", err)
	}
}

func TestMigrationCostSlowsMovedVMs(t *testing.T) {
	db := sharedDB(t)
	reqs := fragmentingReqs(t, 4)
	run := func(cost units.Seconds) Result {
		cfg := Config{
			DB: db, Servers: 8, Strategy: ff(t, 1), IdleServerPower: -1,
			Consolidator: &migrate.Planner{DB: db, MigrationCost: cost},
		}
		res, err := Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cheap := run(1)
	costly := run(300)
	if cheap.Migrations == 0 {
		t.Skip("no migrations triggered; workload too small")
	}
	// With a large migration cost the moved VMs take longer overall.
	if costly.Migrations > 0 && costly.AvgResponse < cheap.AvgResponse {
		t.Errorf("expensive migrations should not speed responses: %v vs %v",
			costly.AvgResponse, cheap.AvgResponse)
	}
}

// spreadConsolidator moves the first snapshot VM onto the highest-id
// empty server, for its first few plans: the one move the built-in
// planner never makes.
type spreadConsolidator struct{ plans *int }

func (c spreadConsolidator) Propose(allocs []model.Key, vms []migrate.VM) (migrate.Plan, error) {
	if *c.plans >= 3 {
		return migrate.Plan{}, nil
	}
	for to := len(allocs) - 1; to >= 0; to-- {
		if allocs[to].IsZero() {
			*c.plans++
			return migrate.Plan{Moves: []migrate.Move{{VMID: vms[0].ID, From: vms[0].Server, To: to}}}, nil
		}
	}
	return migrate.Plan{}, nil
}

// A VM migrated onto an empty server runs there from the move on: the
// snapshot skips empty servers, so the move itself must start the
// target's accounting clock, or its first interval is billed from the
// instant it last emptied. The reference advances every server and is
// the oracle.
func TestConsolidateOntoEmptyServerMatchesReference(t *testing.T) {
	reqs := fragmentingReqs(t, 6)
	var plans, refPlans int
	cfg := Config{DB: sharedDB(t), Servers: 12, Strategy: ff(t, 1), Consolidator: spreadConsolidator{&plans}}
	got, gotVMs := runRecords(t, Run, cfg, reqs)
	cfg.Consolidator = spreadConsolidator{&refPlans}
	want, wantVMs, err := RunReference(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Migrations != 3 {
		t.Fatalf("%d migrations, want 3", got.Migrations)
	}
	if got.Metrics != want.Metrics {
		t.Errorf("Run diverges from the reference:\nrun %+v\nref %+v", got.Metrics, want.Metrics)
	}
	if !reflect.DeepEqual(gotVMs, wantVMs) {
		t.Error("Run's VM records diverge from the reference")
	}
}
