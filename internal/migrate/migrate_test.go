package migrate

import (
	"sync"
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

var (
	dbOnce sync.Once
	testDB *model.DB
	dbErr  error
)

func sharedDB(t *testing.T) *model.DB {
	t.Helper()
	dbOnce.Do(func() {
		cfg := campaign.DefaultConfig()
		cfg.FullGridTotal = 12
		testDB, _, dbErr = campaign.Run(cfg)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

func planner(t *testing.T) *Planner {
	t.Helper()
	return &Planner{DB: sharedDB(t), MigrationCost: 30}
}

// cloud builds consistent allocs+VMs from per-server class counts.
func cloud(t *testing.T, perServer []model.Key) ([]model.Key, []VM) {
	t.Helper()
	db := sharedDB(t)
	var vms []VM
	for s, k := range perServer {
		for _, c := range workload.Classes {
			for i := 0; i < k.Count(c); i++ {
				vms = append(vms, VM{
					ID:        len(vms) + 1,
					Class:     c,
					Server:    s,
					Remaining: db.Aux().RefTime[c] / 2,
				})
			}
		}
	}
	return perServer, vms
}

func TestValidate(t *testing.T) {
	if err := (&Planner{}).Validate(); err == nil {
		t.Error("nil DB should fail")
	}
	p := planner(t)
	p.MigrationCost = -1
	if err := p.Validate(); err == nil {
		t.Error("negative migration cost should fail")
	}
}

func TestConsistencyChecks(t *testing.T) {
	p := planner(t)
	allocs := []model.Key{{NCPU: 1}}
	cases := []struct {
		name string
		vms  []VM
	}{
		{"unknown server", []VM{{ID: 1, Class: workload.ClassCPU, Server: 5}}},
		{"invalid class", []VM{{ID: 1, Class: workload.Class(9), Server: 0}}},
		{"negative remaining", []VM{{ID: 1, Class: workload.ClassCPU, Server: 0, Remaining: -1}}},
		{"duplicate id", []VM{
			{ID: 1, Class: workload.ClassCPU, Server: 0},
			{ID: 1, Class: workload.ClassCPU, Server: 0},
		}},
		{"mismatched counts", []VM{{ID: 1, Class: workload.ClassMEM, Server: 0}}},
	}
	for _, c := range cases {
		if _, err := p.Propose(allocs, c.vms); err == nil {
			t.Errorf("%s: Propose accepted inconsistent input", c.name)
		}
	}
}

func TestDrainsFragmentedCloud(t *testing.T) {
	// Three servers each hosting one CPU VM: two of them should drain
	// onto a peer (per-class bound permitting), powering two servers
	// down.
	p := planner(t)
	allocs, vms := cloud(t, []model.Key{{NCPU: 1}, {NCPU: 1}, {NCPU: 1}})
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ServersDrained < 1 {
		t.Fatalf("no servers drained: %+v", plan)
	}
	if plan.Gain() <= 0 {
		t.Errorf("consolidation gained nothing: before %v after %v", plan.PowerBefore, plan.PowerAfter)
	}
	if len(plan.Moves) == 0 {
		t.Error("no moves in a draining plan")
	}
	if plan.MigrationCost != p.MigrationCost {
		t.Errorf("plan charges %v per move, planner's cost is %v", plan.MigrationCost, p.MigrationCost)
	}
}

func TestRespectsPerClassBound(t *testing.T) {
	// Both servers already sit at the CPU bound: nothing can drain.
	p := planner(t)
	osc := sharedDB(t).Aux().OS(workload.ClassCPU)
	allocs, vms := cloud(t, []model.Key{{NCPU: osc}, {NCPU: osc}})
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("plan moved VMs past the per-class bound: %+v", plan.Moves)
	}
}

func TestQoSBlocksMigration(t *testing.T) {
	// A VM whose budget barely covers its remaining solo time cannot
	// absorb contention on a shared server, so it must stay put.
	db := sharedDB(t)
	p := planner(t)
	ref := db.Aux().RefTime[workload.ClassMEM]
	allocs := []model.Key{{NMEM: 1}, {NMEM: 2}}
	vms := []VM{
		{ID: 1, Class: workload.ClassMEM, Server: 0, Remaining: ref, Budget: ref * 1.05},
		{ID: 2, Class: workload.ClassMEM, Server: 1, Remaining: ref},
		{ID: 3, Class: workload.ClassMEM, Server: 1, Remaining: ref},
	}
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range plan.Moves {
		if mv.VMID == 1 {
			t.Errorf("migrated a VM whose QoS budget cannot absorb it: %+v", plan.Moves)
		}
	}
}

func TestResidentQoSBlocksInbound(t *testing.T) {
	// The target's resident has no slack: accepting a migrant would
	// stretch it past its budget, so the donor cannot drain there.
	db := sharedDB(t)
	p := planner(t)
	ref := db.Aux().RefTime[workload.ClassIO]
	allocs := []model.Key{{NIO: 1}, {NIO: 2}}
	vms := []VM{
		{ID: 1, Class: workload.ClassIO, Server: 0, Remaining: ref / 2},
		{ID: 2, Class: workload.ClassIO, Server: 1, Remaining: ref, Budget: ref * 1.05},
		{ID: 3, Class: workload.ClassIO, Server: 1, Remaining: ref},
	}
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) != 0 {
		t.Errorf("plan harmed a resident's QoS: %+v", plan.Moves)
	}
}

func TestNeverMovesOntoEmptyServer(t *testing.T) {
	// Consolidation only targets servers that stay on; waking an empty
	// server to receive migrants would defeat the purpose.
	p := planner(t)
	allocs, vms := cloud(t, []model.Key{{NCPU: 1}, {}, {NCPU: 1}})
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range plan.Moves {
		if mv.To == 1 {
			t.Errorf("plan woke an empty server: %+v", mv)
		}
	}
}

func TestPlanIsInternallyConsistent(t *testing.T) {
	// Applying the plan's moves to the input must produce a consistent
	// cloud: every VM placed exactly once, totals preserved, donors
	// empty.
	p := planner(t)
	allocs, vms := cloud(t, []model.Key{
		{NCPU: 1, NIO: 1}, {NMEM: 1}, {NCPU: 2}, {NIO: 2, NMEM: 1},
	})
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	after := append([]model.Key(nil), allocs...)
	pos := map[int]int{}
	for _, vm := range vms {
		pos[vm.ID] = vm.Server
	}
	for _, mv := range plan.Moves {
		if pos[mv.VMID] != mv.From {
			t.Fatalf("move %+v from wrong server (VM at %d)", mv, pos[mv.VMID])
		}
		var class workload.Class
		for _, vm := range vms {
			if vm.ID == mv.VMID {
				class = vm.Class
			}
		}
		after[mv.From] = after[mv.From].Add(model.KeyFor(class, -1))
		after[mv.To] = after[mv.To].Add(model.KeyFor(class, 1))
		pos[mv.VMID] = mv.To
	}
	totalBefore, totalAfter := 0, 0
	for i := range allocs {
		totalBefore += allocs[i].Total()
		totalAfter += after[i].Total()
		if !after[i].Valid() {
			t.Fatalf("negative allocation after plan: %v", after[i])
		}
	}
	if totalBefore != totalAfter {
		t.Fatalf("plan lost VMs: %d -> %d", totalBefore, totalAfter)
	}
	drained := 0
	for i := range after {
		if !allocs[i].IsZero() && after[i].IsZero() {
			drained++
		}
	}
	if drained != plan.ServersDrained {
		t.Errorf("plan reports %d drained, observed %d", plan.ServersDrained, drained)
	}
}

func TestUnconstrainedBudgetAlwaysMovable(t *testing.T) {
	p := planner(t)
	p.MigrationCost = units.Seconds(1e6) // enormous, but budgets are 0
	allocs, vms := cloud(t, []model.Key{{NIO: 1}, {NIO: 1}})
	plan, err := p.Propose(allocs, vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Moves) == 0 {
		t.Error("unconstrained VMs should consolidate regardless of cost")
	}
}
