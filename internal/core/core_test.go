package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"

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

// sharedDB builds one campaign database for the whole test package.
func sharedDB(t testing.TB) *model.DB {
	t.Helper()
	dbOnce.Do(func() {
		cfg := campaign.DefaultConfig()
		cfg.MaxBase = 12
		cfg.FullGridTotal = 10
		testDB, _, dbErr = campaign.Run(cfg)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

func mkAllocator(t *testing.T) *Allocator {
	t.Helper()
	a, err := NewAllocator(Config{DB: sharedDB(t)})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func refTime(t *testing.T, c workload.Class) units.Seconds {
	return sharedDB(t).Aux().RefTime[c]
}

func vm(id string, c workload.Class, nominal, max units.Seconds) VMRequest {
	return VMRequest{ID: id, Class: c, NominalTime: nominal, MaxTime: max}
}

func emptyServers(n int) []ServerState {
	out := make([]ServerState, n)
	for i := range out {
		out[i] = ServerState{ID: i}
	}
	return out
}

func TestNewAllocatorValidation(t *testing.T) {
	if _, err := NewAllocator(Config{}); err == nil {
		t.Error("nil DB should fail")
	}
	if _, err := NewAllocator(Config{DB: sharedDB(t), MaxVMsPerServer: -1}); err == nil {
		t.Error("negative cap should fail")
	}
	if _, err := NewAllocator(Config{DB: sharedDB(t), MaxVMsPerServer: maxPackedCount + 1}); err == nil {
		t.Error("a cap past the packed server-class key should fail")
	}
}

// TestAllocateFullFleetInfeasible: servers already at MaxVMsPerServer
// join no server class, so a fleet of only such servers offers no
// candidate, exactly as the reference finds none.
func TestAllocateFullFleetInfeasible(t *testing.T) {
	a := mkAllocator(t)
	servers := emptyServers(3)
	for i := range servers {
		servers[i].Alloc = model.Key{NMEM: a.cfg.MaxVMsPerServer}
	}
	vms := []VMRequest{vm("v", workload.ClassCPU, refTime(t, workload.ClassCPU), 0)}
	if _, err := a.AllocateReference(GoalBalanced, servers, vms); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("reference: err %v, want ErrInfeasible", err)
	}
	if _, err := a.Allocate(GoalBalanced, servers, vms); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err %v, want ErrInfeasible", err)
	}
}

func TestAllocateInputValidation(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	good := []VMRequest{vm("v", workload.ClassCPU, ref, 0)}
	if _, err := a.Allocate(Goal{Alpha: 2}, emptyServers(1), good); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, err := a.Allocate(GoalEnergy, nil, good); err == nil {
		t.Error("no servers should fail")
	}
	if _, err := a.Allocate(GoalEnergy, emptyServers(1), nil); err == nil {
		t.Error("no VMs should fail")
	}
	if _, err := a.Allocate(GoalEnergy, emptyServers(1), []VMRequest{vm("v", workload.Class(9), ref, 0)}); err == nil {
		t.Error("bad class should fail")
	}
	if _, err := a.Allocate(GoalEnergy, emptyServers(1), []VMRequest{vm("v", workload.ClassCPU, 0, 0)}); err == nil {
		t.Error("zero nominal time should fail")
	}
	bad := []ServerState{{ID: 0, Alloc: model.Key{NCPU: -1}}}
	if _, err := a.Allocate(GoalEnergy, bad, good); err == nil {
		t.Error("invalid server alloc should fail")
	}
}

func TestSingleVMOnEmptyCloud(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	out, err := a.Allocate(GoalPerformance, emptyServers(4), []VMRequest{vm("v0", workload.ClassCPU, ref, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Placements) != 1 {
		t.Fatalf("placements = %d", len(out.Placements))
	}
	pl := out.Placements[0]
	if pl.ServerID != 0 {
		t.Errorf("tie-break should pick the first server, got %d", pl.ServerID)
	}
	if pl.NewAlloc != model.KeyFor(workload.ClassCPU, 1) {
		t.Errorf("new alloc = %v", pl.NewAlloc)
	}
	// Solo estimate ≈ reference time.
	if !units.NearlyEqual(float64(pl.EstTime), float64(ref), 0.01) {
		t.Errorf("solo estimate %v, want ~%v", pl.EstTime, ref)
	}
	if out.EstEnergy <= 0 {
		t.Error("activating a server must cost energy")
	}
}

func TestEstimateVMScalesWithNominalTime(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassMEM)
	alloc := model.KeyFor(workload.ClassMEM, 2)
	e1, err := a.EstimateVM(alloc, vm("a", workload.ClassMEM, ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := a.EstimateVM(alloc, vm("b", workload.ClassMEM, 2*ref, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(float64(e2), 2*float64(e1), 1e-9) {
		t.Errorf("estimate did not scale: %v vs %v", e2, e1)
	}
}

func TestEnergyGoalConsolidates(t *testing.T) {
	// One server already runs 2 IO VMs; the rest are off. Placing one
	// more IO VM with the energy goal must reuse the warm server (its
	// marginal power is far below a 125 W activation).
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassIO)
	servers := emptyServers(4)
	servers[1].Alloc = model.KeyFor(workload.ClassIO, 2)
	out, err := a.Allocate(GoalEnergy, servers, []VMRequest{vm("v", workload.ClassIO, ref, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Placements[0].ServerID; got != 1 {
		t.Errorf("energy goal placed on server %d, want warm server 1", got)
	}
}

func TestPerformanceGoalAvoidsContention(t *testing.T) {
	// One server is saturated with CPU VMs; an idle server is available.
	// The performance goal must prefer the idle server even though
	// activation costs energy.
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	servers := emptyServers(2)
	servers[0].Alloc = model.KeyFor(workload.ClassCPU, 6)
	out, err := a.Allocate(GoalPerformance, servers, []VMRequest{vm("v", workload.ClassCPU, ref, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Placements[0].ServerID; got != 1 {
		t.Errorf("performance goal placed on server %d, want idle server 1", got)
	}
}

func TestQoSForcesSpread(t *testing.T) {
	// Four CPU VMs with a QoS bound just above solo time cannot share
	// one saturated server; the allocator must split them.
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	vms := make([]VMRequest, 4)
	for i := range vms {
		vms[i] = vm(string(rune('a'+i)), workload.ClassCPU, ref, ref*1.3)
	}
	out, err := a.Allocate(GoalEnergy, emptyServers(4), vms)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range out.Placements {
		for _, v := range pl.VMs {
			est, err := a.EstimateVM(pl.NewAlloc, v)
			if err != nil {
				t.Fatal(err)
			}
			if est > v.MaxTime {
				t.Errorf("placement violates QoS: est %v > max %v on alloc %v", est, v.MaxTime, pl.NewAlloc)
			}
		}
	}
}

func TestInfeasibleQoS(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	// Impossible bound: half the solo time.
	vms := []VMRequest{vm("v", workload.ClassCPU, ref, ref/2)}
	_, err := a.Allocate(GoalEnergy, emptyServers(2), vms)
	if err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}

	relaxed, err := NewAllocator(Config{DB: sharedDB(t), RelaxQoS: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := relaxed.Allocate(GoalEnergy, emptyServers(2), vms); err != nil {
		t.Errorf("relaxed allocator should place it: %v", err)
	}
}

func TestFitsAlone(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassIO)
	if !a.FitsAlone(vm("v", workload.ClassIO, ref, 2*ref)) {
		t.Error("generous bound should fit")
	}
	if a.FitsAlone(vm("v", workload.ClassIO, ref, ref/2)) {
		t.Error("impossible bound should not fit")
	}
	if !a.FitsAlone(vm("v", workload.ClassIO, ref, 0)) {
		t.Error("unconstrained VM always fits")
	}
}

func TestServerCapRespected(t *testing.T) {
	a, err := NewAllocator(Config{DB: sharedDB(t), MaxVMsPerServer: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref := refTime(t, workload.ClassCPU)
	vms := make([]VMRequest, 4)
	for i := range vms {
		vms[i] = vm(string(rune('a'+i)), workload.ClassCPU, ref, 0)
	}
	out, err := a.Allocate(GoalEnergy, emptyServers(4), vms)
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range out.Placements {
		if pl.NewAlloc.Total() > 2 {
			t.Errorf("placement exceeds cap: %v", pl.NewAlloc)
		}
	}
	// And with only one tiny server it must be infeasible.
	if _, err := a.Allocate(GoalEnergy, emptyServers(1), vms); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestAllVMsPlacedExactlyOnceProperty(t *testing.T) {
	a := mkAllocator(t)
	refC := refTime(t, workload.ClassCPU)
	refM := refTime(t, workload.ClassMEM)
	refI := refTime(t, workload.ClassIO)
	refs := map[workload.Class]units.Seconds{
		workload.ClassCPU: refC, workload.ClassMEM: refM, workload.ClassIO: refI,
	}
	db := sharedDB(t)
	f := func(classRaw [5]uint8, nVMs, nServers, alphaRaw uint8) bool {
		n := int(nVMs%5) + 1
		servers := emptyServers(int(nServers%6) + 1)
		alpha := float64(alphaRaw%11) / 10
		vms := make([]VMRequest, n)
		ids := map[string]bool{}
		counts := map[workload.Class]int{}
		for i := range vms {
			c := workload.Classes[int(classRaw[i%5])%workload.NumClasses]
			id := string(rune('a' + i))
			vms[i] = vm(id, c, refs[c], 0)
			ids[id] = true
			counts[c]++
		}
		out, err := a.Allocate(Goal{Alpha: alpha}, servers, vms)
		if err == ErrInfeasible {
			// Legitimate only when some class genuinely exceeds the
			// cloud's per-class grid capacity (servers × OS bound).
			for c, cnt := range counts {
				if cnt > len(servers)*db.Aux().OS(c) {
					return true
				}
			}
			return false
		}
		if err != nil {
			return false
		}
		placed := map[string]int{}
		for _, pl := range out.Placements {
			for _, v := range pl.VMs {
				placed[v.ID]++
			}
		}
		if len(placed) != n {
			return false
		}
		for id := range ids {
			if placed[id] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicAllocation(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassMEM)
	vms := []VMRequest{
		vm("a", workload.ClassMEM, ref, 0),
		vm("b", workload.ClassCPU, refTime(t, workload.ClassCPU), 0),
		vm("c", workload.ClassMEM, ref, 0),
	}
	servers := emptyServers(3)
	servers[0].Alloc = model.Key{NCPU: 1}
	first, err := a.Allocate(GoalBalanced, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := a.Allocate(GoalBalanced, servers, vms)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Placements) != len(first.Placements) {
			t.Fatal("nondeterministic placement count")
		}
		for j := range again.Placements {
			if again.Placements[j].ServerID != first.Placements[j].ServerID ||
				again.Placements[j].NewAlloc != first.Placements[j].NewAlloc {
				t.Fatal("nondeterministic placement")
			}
		}
	}
}

func TestPartitionSignatureDedup(t *testing.T) {
	ref := units.Seconds(600)
	vms := []VMRequest{
		vm("a", workload.ClassCPU, ref, 0),
		vm("b", workload.ClassCPU, ref, 0),
		vm("c", workload.ClassCPU, ref, 0),
	}
	// Identical VMs: {a,b}{c} and {a,c}{b} must collapse.
	sig1 := legacyPartitionSignature(vms, [][]int{{0, 1}, {2}})
	sig2 := legacyPartitionSignature(vms, [][]int{{0, 2}, {1}})
	if sig1 != sig2 {
		t.Errorf("equivalent partitions have different signatures:\n%s\n%s", sig1, sig2)
	}
	// Different block structure must not collapse.
	sig3 := legacyPartitionSignature(vms, [][]int{{0, 1, 2}})
	if sig1 == sig3 {
		t.Error("distinct partitions share a signature")
	}
	// Distinct VM attributes must not collapse.
	vms[2].Class = workload.ClassIO
	sig4 := legacyPartitionSignature(vms, [][]int{{0, 1}, {2}})
	sig5 := legacyPartitionSignature(vms, [][]int{{0, 2}, {1}})
	if sig4 == sig5 {
		t.Error("partitions of distinguishable VMs should differ")
	}
	if !strings.Contains(sig4, "|") {
		t.Error("multi-block signature should separate blocks")
	}
}

func TestEnergyVsPerformanceTradeoffDirection(t *testing.T) {
	// For the same request, the energy goal must not use more estimated
	// energy than the performance goal, and the performance goal must
	// not be slower than the energy goal.
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	vms := make([]VMRequest, 4)
	for i := range vms {
		vms[i] = vm(string(rune('a'+i)), workload.ClassCPU, ref, 0)
	}
	servers := emptyServers(4)
	servers[0].Alloc = model.Key{NCPU: 2}
	eOut, err := a.Allocate(GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	pOut, err := a.Allocate(GoalPerformance, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if eOut.EstEnergy > pOut.EstEnergy+1 {
		t.Errorf("energy goal used more energy (%v) than performance goal (%v)", eOut.EstEnergy, pOut.EstEnergy)
	}
	if pOut.EstTime > eOut.EstTime+1 {
		t.Errorf("performance goal slower (%v) than energy goal (%v)", pOut.EstTime, eOut.EstTime)
	}
}
