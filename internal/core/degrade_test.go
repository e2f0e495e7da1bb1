package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// firstFitReference is the literal first-fit fallback the class-grouped
// one must reproduce: each VM in request order goes to the lowest-index
// server that admits it, scanning the whole fleet, and each used
// server's VMs are then priced as one block against its original
// allocation, in first-use order.
func (a *Allocator) firstFitReference(servers []ServerState, vms []VMRequest) (Allocation, error) {
	extra := make([]model.Key, len(servers)) // this request's tentative additions
	placed := make([][]VMRequest, len(servers))
	order := make([]int, 0, len(servers)) // servers in first-use order
	one := make([]VMRequest, 1)
	for _, vm := range vms {
		fit := false
		for si := range servers {
			base := servers[si].Alloc.Add(extra[si])
			one[0] = vm
			if _, ok := a.evalBlock(base, model.KeyFor(vm.Class, 1), one, placed[si]); !ok {
				continue
			}
			if len(placed[si]) == 0 {
				order = append(order, si)
			}
			extra[si] = extra[si].Add(model.KeyFor(vm.Class, 1))
			placed[si] = append(placed[si], vm)
			fit = true
			break
		}
		if !fit {
			return Allocation{}, ErrInfeasible
		}
	}
	var out Allocation
	for _, si := range order {
		pl, ok := a.evalBlock(servers[si].Alloc, extra[si], placed[si], nil)
		if !ok {
			return Allocation{}, ErrInfeasible
		}
		pl.ServerID = servers[si].ID
		out.Placements = append(out.Placements, pl.Placement)
		out.EstEnergy += pl.energy
		if pl.EstTime > out.EstTime {
			out.EstTime = pl.EstTime
		}
	}
	return out, nil
}

func budgetAllocator(t *testing.T, budget int, reg *obs.Registry) *Allocator {
	t.Helper()
	a, err := NewAllocator(Config{DB: sharedDB(t), SearchBudget: budget, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSearchBudgetUnlimitedMatchesReference pins the strictly-additive
// contract: zero and negative budgets change nothing — Allocate stays
// bit-identical to the frozen oracle.
func TestSearchBudgetUnlimitedMatchesReference(t *testing.T) {
	r := rng.New(99)
	servers := randomFleet(r, 5)
	vms := randomVMs(t, r, 6)
	ref := mkAllocator(t)
	for _, budget := range []int{0, -1} {
		a := budgetAllocator(t, budget, nil)
		for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
			want, err := ref.AllocateReference(goal, servers, vms)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := a.AllocateExplained(goal, servers, vms)
			if err != nil {
				t.Fatal(err)
			}
			if st.Degraded {
				t.Fatalf("budget %d marked the allocation degraded", budget)
			}
			sameAllocation(t, "unlimited", got, want)
		}
	}
}

// TestSearchBudgetDegradesToFirstFit drives the budget to exhaustion
// and checks the fallback's shape: degraded flag set, every VM placed
// exactly once, placements on the lowest-index servers that admit them,
// and the obs counters record the event.
func TestSearchBudgetDegradesToFirstFit(t *testing.T) {
	reg := obs.NewRegistry()
	a := budgetAllocator(t, 1, reg) // B(6) >> 1: always exhausts
	r := rng.New(7)
	servers := randomFleet(r, 5)
	vms := randomVMs(t, r, 6)
	got, st, err := a.AllocateExplained(GoalBalanced, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatal("budget 1 over B(6) partitions did not degrade")
	}
	placedIDs := map[string]int{}
	for _, p := range got.Placements {
		for _, vm := range p.VMs {
			placedIDs[vm.ID]++
		}
	}
	for _, vm := range vms {
		if placedIDs[vm.ID] != 1 {
			t.Errorf("VM %q placed %d times", vm.ID, placedIDs[vm.ID])
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["search_budget_exhausted"] != 1 {
		t.Errorf("search_budget_exhausted = %d, want 1", snap.Counters["search_budget_exhausted"])
	}
	if snap.Counters["search_degraded_firstfit"] != 1 {
		t.Errorf("search_degraded_firstfit = %d, want 1", snap.Counters["search_degraded_firstfit"])
	}
}

// TestSearchBudgetDeterministic pins the replayability contract: the
// budget counts scored partitions, not time, so a budgeted allocation
// is identical on every run — including whether it degraded — whether
// the allocator is fresh or reuses a pooled search context, and a
// degraded one is exactly the literal first-fit fallback.
func TestSearchBudgetDeterministic(t *testing.T) {
	r := rng.New(17)
	servers := randomFleet(r, 5)
	vms := randomVMs(t, r, 7)
	ff, fferr := mkAllocator(t).firstFitReference(servers, vms)
	for _, budget := range []int{1, 3, 10, 50} {
		base := budgetAllocator(t, budget, nil)
		want, wantSt, werr := base.AllocateExplained(GoalBalanced, servers, vms)
		if werr == nil && wantSt.Degraded {
			if fferr != nil {
				t.Fatalf("budget %d: degraded placement where the first-fit reference fails: %v", budget, fferr)
			}
			sameAllocation(t, fmt.Sprintf("budget %d vs first-fit reference", budget), want, ff)
		}
		for run, a := range []*Allocator{base, base, budgetAllocator(t, budget, nil)} {
			got, gotSt, gerr := a.AllocateExplained(GoalBalanced, servers, vms)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("budget %d run %d: err %v vs first run %v", budget, run, gerr, werr)
			}
			if werr != nil {
				continue
			}
			if gotSt.Degraded != wantSt.Degraded {
				t.Fatalf("budget %d run %d: degraded %v vs first run %v", budget, run, gotSt.Degraded, wantSt.Degraded)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d run %d: allocation differs from the first run", budget, run)
			}
		}
	}
}

// TestSearchBudgetAboveSpaceNeverDegrades checks that a budget at least
// as large as the deduplicated partition count behaves exactly like no
// budget at all.
func TestSearchBudgetAboveSpaceNeverDegrades(t *testing.T) {
	r := rng.New(23)
	servers := randomFleet(r, 4)
	vms := randomVMs(t, r, 4) // B(4) = 15 partitions before dedup
	ref := mkAllocator(t)
	want, err := ref.Allocate(GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	a := budgetAllocator(t, 15, nil)
	got, st, err := a.AllocateExplained(GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded {
		t.Fatal("budget covering the whole space degraded")
	}
	sameAllocation(t, "full budget", got, want)
}

// TestFirstFitFallbackRespectsConstraints exhausts the budget with a
// QoS-tight request and checks the fallback still enforces the bounds:
// a VM that can only run alone must land alone, and an impossible
// request surfaces ErrInfeasible rather than a sloppy placement.
func TestFirstFitFallbackRespectsConstraints(t *testing.T) {
	db := sharedDB(t)
	class := workload.ClassCPU
	nominal := db.Aux().RefTime[class]
	// Tight bound: solo estimate is exactly nominal, so MaxTime just
	// above it admits only solo placement.
	solo := nominal * units.Seconds(1.0001)
	a := budgetAllocator(t, 1, nil)
	vms := []VMRequest{
		vm("a", class, nominal, solo),
		vm("b", class, nominal, solo),
	}
	got, st, err := a.AllocateExplained(GoalBalanced, emptyServers(3), vms)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Degraded {
		t.Fatal("expected degraded placement")
	}
	if len(got.Placements) != 2 {
		t.Fatalf("tight QoS VMs share a server: %+v", got.Placements)
	}
	// One server only: the second VM cannot co-locate and has nowhere
	// else to go.
	_, err = a.Allocate(GoalBalanced, emptyServers(1), vms)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("impossible request returned %v, want ErrInfeasible", err)
	}
}
