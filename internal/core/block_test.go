package core

import (
	"testing"
	"testing/quick"

	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// EvaluateBlock prices adding the given VMs as one co-located block to a
// server whose current allocation is base: the estimated execution time
// of the block's slowest VM under the resulting allocation and the
// marginal energy of the move. ok is false when the placement is
// inadmissible (capacity, per-class bound, QoS, or unpriceable
// allocation). It exposes evalBlock to the pricing tests below.
func (a *Allocator) EvaluateBlock(base model.Key, vms []VMRequest) (refBlock, bool) {
	var blockKey model.Key
	for _, vm := range vms {
		if vm.validate() != nil {
			return refBlock{}, false
		}
		blockKey = blockKey.Add(model.KeyFor(vm.Class, 1))
	}
	if blockKey.IsZero() || !base.Valid() {
		return refBlock{}, false
	}
	return a.evalBlock(base, blockKey, vms, nil)
}

func TestEvaluateBlockSolo(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	pl, ok := a.EvaluateBlock(model.Key{}, []VMRequest{vm("v", workload.ClassCPU, ref, 0)})
	if !ok {
		t.Fatal("solo block refused")
	}
	if pl.NewAlloc != model.KeyFor(workload.ClassCPU, 1) {
		t.Errorf("new alloc = %v", pl.NewAlloc)
	}
	rec, _ := sharedDB(t).Lookup(model.KeyFor(workload.ClassCPU, 1))
	if !units.NearlyEqual(float64(pl.EstTime), float64(rec.ClassTime(workload.ClassCPU)), 1e-9) {
		t.Errorf("est time %v, want %v", pl.EstTime, rec.ClassTime(workload.ClassCPU))
	}
	if !units.NearlyEqual(float64(pl.energy), float64(rec.Energy), 1e-9) {
		t.Errorf("est energy %v, want the solo record's %v", pl.energy, rec.Energy)
	}
}

func TestEvaluateBlockRejects(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	if _, ok := a.EvaluateBlock(model.Key{}, nil); ok {
		t.Error("empty block should be refused")
	}
	if _, ok := a.EvaluateBlock(model.Key{NCPU: -1}, []VMRequest{vm("v", workload.ClassCPU, ref, 0)}); ok {
		t.Error("invalid base should be refused")
	}
	if _, ok := a.EvaluateBlock(model.Key{}, []VMRequest{vm("v", workload.Class(9), ref, 0)}); ok {
		t.Error("invalid VM should be refused")
	}
	// QoS-infeasible block.
	if _, ok := a.EvaluateBlock(model.Key{}, []VMRequest{vm("v", workload.ClassCPU, ref, ref/4)}); ok {
		t.Error("impossible QoS should be refused")
	}
}

func TestEvaluateBlockPerClassBound(t *testing.T) {
	a := mkAllocator(t)
	db := sharedDB(t)
	ref := refTime(t, workload.ClassMEM)
	bound := db.Aux().OS(workload.ClassMEM)
	base := model.KeyFor(workload.ClassMEM, bound)
	if _, ok := a.EvaluateBlock(base, []VMRequest{vm("v", workload.ClassMEM, ref, 0)}); ok {
		t.Errorf("block admitted past the per-class bound of %d", bound)
	}
	// An unbounded allocator admits it.
	un, err := NewAllocator(Config{DB: db, PerClassBound: [workload.NumClasses]int{-1, -1, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := un.EvaluateBlock(base, []VMRequest{vm("v", workload.ClassMEM, ref, 0)}); !ok {
		t.Error("unbounded allocator refused a within-capacity block")
	}
}

// TestEvaluateBlockMarginalEnergyAdditive checks the pricing telescope:
// adding VMs one at a time must accumulate exactly the energy of adding
// them at once (both equal E(after) − E(before)).
func TestEvaluateBlockMarginalEnergyAdditive(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassIO)
	one := []VMRequest{vm("a", workload.ClassIO, ref, 0)}
	two := []VMRequest{vm("a", workload.ClassIO, ref, 0), vm("b", workload.ClassIO, ref, 0)}

	plTwo, ok := a.EvaluateBlock(model.Key{}, two)
	if !ok {
		t.Fatal("2-block refused")
	}
	plFirst, ok := a.EvaluateBlock(model.Key{}, one)
	if !ok {
		t.Fatal("first refused")
	}
	plSecond, ok := a.EvaluateBlock(model.KeyFor(workload.ClassIO, 1), one)
	if !ok {
		t.Fatal("second refused")
	}
	sum := float64(plFirst.energy + plSecond.energy)
	if !units.NearlyEqual(sum, float64(plTwo.energy), 1e-9) {
		t.Errorf("telescoped energy %v != block energy %v", sum, plTwo.energy)
	}
}

// TestEvaluateBlockMonotoneInLoad: the same block on a busier server is
// never estimated faster.
func TestEvaluateBlockMonotoneInLoad(t *testing.T) {
	a := mkAllocator(t)
	ref := refTime(t, workload.ClassCPU)
	block := []VMRequest{vm("v", workload.ClassCPU, ref, 0)}
	f := func(nRaw uint8) bool {
		n := int(nRaw % 4)
		lighter, ok1 := a.EvaluateBlock(model.KeyFor(workload.ClassCPU, n), block)
		heavier, ok2 := a.EvaluateBlock(model.KeyFor(workload.ClassCPU, n+1), block)
		if !ok1 {
			return true
		}
		if !ok2 {
			return true // bound reached; nothing to compare
		}
		return heavier.EstTime >= lighter.EstTime-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
