package core

import (
	"reflect"
	"testing"

	"pacevm/internal/workload"
)

// cancelVMs is big enough (6 VMs, 3 types) that the enumeration polls
// the hook many times before it completes.
func cancelVMs(t *testing.T) []VMRequest {
	return []VMRequest{
		vm("a", workload.ClassCPU, refTime(t, workload.ClassCPU), 0),
		vm("b", workload.ClassCPU, refTime(t, workload.ClassCPU), 0),
		vm("c", workload.ClassMEM, refTime(t, workload.ClassMEM), 0),
		vm("d", workload.ClassMEM, refTime(t, workload.ClassMEM), 0),
		vm("e", workload.ClassIO, refTime(t, workload.ClassIO), 0),
		vm("f", workload.ClassIO, refTime(t, workload.ClassIO), 0),
	}
}

// TestCancelNilIsIdentity pins that a nil Cancel hook changes nothing:
// the allocation equals the hook-free allocator's bit for bit, with no
// Exhausted/Degraded marks.
func TestCancelNilIsIdentity(t *testing.T) {
	vms := cancelVMs(t)
	servers := emptyServers(4)
	base := mkAllocator(t)
	want, wantStats, err := base.AllocateExplained(Goal{Alpha: 0.5}, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAllocator(Config{DB: sharedDB(t), Cancel: nil})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := a.AllocateExplained(Goal{Alpha: 0.5}, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("nil Cancel hook changed the allocation")
	}
	if stats != wantStats || stats.Exhausted || stats.Degraded {
		t.Fatalf("stats drifted under a nil hook: %+v vs %+v", stats, wantStats)
	}
}

// TestCancelFalseIsIdentity pins that a hook that never fires leaves
// the search result identical — the poll itself must not perturb the
// enumeration.
func TestCancelFalseIsIdentity(t *testing.T) {
	vms := cancelVMs(t)
	servers := emptyServers(4)
	want, _, err := mkAllocator(t).AllocateExplained(Goal{Alpha: 0.5}, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	polled := 0
	a, err := NewAllocator(Config{
		DB:     sharedDB(t),
		Cancel: func() bool { polled++; return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := a.AllocateExplained(Goal{Alpha: 0.5}, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("never-firing Cancel changed the allocation")
	}
	if stats.Exhausted || stats.Degraded {
		t.Fatalf("never-firing Cancel marked the search cut: %+v", stats)
	}
	if polled == 0 {
		t.Fatal("Cancel hook was never polled")
	}
}

// TestCancelDegradesToFirstFit pins the firing path: a hook that trips
// mid-enumeration abandons the search and lands on the same
// deterministic first-fit placement budget exhaustion produces, with
// Exhausted and Degraded both set (the allocator has no budget, so only
// the hook can have cut the search).
func TestCancelDegradesToFirstFit(t *testing.T) {
	vms := cancelVMs(t)
	servers := emptyServers(4)

	// Reference degradation: budget 1 exhausts immediately.
	budgeted, err := NewAllocator(Config{DB: sharedDB(t), SearchBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := budgeted.AllocateExplained(Goal{Alpha: 0.5}, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !wantStats.Degraded {
		t.Fatal("budget-1 reference did not degrade; the fixture is too small")
	}

	calls := 0
	a, err := NewAllocator(Config{
		DB:     sharedDB(t),
		Cancel: func() bool { calls++; return calls > 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := a.AllocateExplained(Goal{Alpha: 0.5}, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Exhausted || !stats.Degraded {
		t.Fatalf("firing Cancel did not mark the degradation: %+v", stats)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("canceled placement differs from the budget-exhaustion first-fit")
	}
}
