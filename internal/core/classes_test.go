package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/rng"
)

// TestAllocateClassesOrderContract pins the input order AllocateClasses
// requires, since its candidate merge relies on it: classes in strictly
// ascending order of their lowest member, and members ascending over
// the prefix the search reads. Out-of-order input is an error, not a
// silently different decision.
func TestAllocateClassesOrderContract(t *testing.T) {
	a := mkAllocator(t)
	vms := mixVMs(t, 2) // the search reads the first 3 members of a class
	grouped := groupByAlloc(mixFleet(66))
	swapped := slices.Clone(grouped)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	unsorted := slices.Clone(grouped)
	m := grouped[0].Members
	unsorted[0].Members = []int{m[0], m[2], m[1]}
	tailUnsorted := slices.Clone(grouped)
	tailUnsorted[0].Members = []int{m[0], m[1], m[2], m[0]}
	sameLead := []ServerClass{
		{Alloc: model.Key{}, Members: []int{3, 5}},
		{Alloc: model.Key{NCPU: 1}, Members: []int{3, 4}},
	}
	tooFullFirst := []ServerClass{
		{Alloc: model.Key{NCPU: a.cfg.MaxVMsPerServer}, Members: []int{4}},
		{Alloc: model.Key{}, Members: []int{2}},
	}
	cases := []struct {
		name    string
		classes []ServerClass
		wantErr bool
	}{
		{"grouped by allocation", grouped, false},
		{"members unsorted past the read prefix", tailUnsorted, false},
		{"two classes swapped", swapped, true},
		{"members unsorted", unsorted, true},
		{"two classes share a lowest member", sameLead, true},
		{"a class too full to search still counts for order", tooFullFirst, true},
	}
	for _, tc := range cases {
		_, _, err := a.AllocateClasses(GoalBalanced, tc.classes, vms, nil)
		if gotErr := err != nil && !errors.Is(err, ErrInfeasible); gotErr != tc.wantErr {
			t.Errorf("%s: err %v, want an order error %v", tc.name, err, tc.wantErr)
		}
	}
}

// edgeFleet builds a fleet for the class path's edge cases. Each
// singleton allocation is held by exactly one server, so a partition
// that places a block there exhausts the class; and each is one VM
// short of a common allocation, so a touched singleton grows into
// another class's allocation and hides that class's untouched servers
// from the blocks after it. With front set the singletons take the
// lowest IDs, ahead of every common class's first member. singletons
// maps each singleton's server ID to its allocation.
func edgeFleet(r *rng.Stream, a *Allocator, nServers int, front bool) (servers []ServerState, singletons map[int]model.Key, common map[model.Key]bool) {
	single := []model.Key{{}, {NMEM: 1}, {NIO: 2}, {NCPU: 2, NIO: 1}}
	commons := []model.Key{
		{NCPU: 1}, {NMEM: 2}, {NIO: 3}, {NCPU: 1, NMEM: 1}, {NMEM: 1, NIO: 1},
		{NCPU: 3, NIO: 1}, {NCPU: a.cfg.MaxVMsPerServer},
	}
	servers = make([]ServerState, nServers)
	for i := range servers {
		servers[i] = ServerState{ID: 10 + 3*i, Alloc: commons[r.Intn(len(commons))]}
	}
	singletons = make(map[int]model.Key, len(single))
	for j, k := range single {
		i := j
		if !front {
			for {
				i = r.Intn(nServers)
				if _, taken := singletons[servers[i].ID]; !taken {
					break
				}
			}
		}
		servers[i].Alloc = k
		singletons[servers[i].ID] = k
	}
	common = make(map[model.Key]bool, len(commons))
	for _, k := range commons {
		common[k] = true
	}
	return servers, singletons, common
}

// TestAllocateClassesMatchesReference checks the class path itself
// against the oracle: AllocateClasses over the fleet's allocation
// classes must assign every VM to the server AllocateReference places
// it on, under every evaluated goal, for mixed-type jobs of up to six
// VMs with tight QoS bounds, on fleets whose single-member classes a
// partition exhausts and whose touched servers grow into other classes'
// allocations.
func TestAllocateClassesMatchesReference(t *testing.T) {
	a := mkAllocator(t)
	r := rng.New(53)
	grewIntoCommon := 0
	for n := 1; n <= 6; n++ {
		for f := 0; f < 8; f++ {
			servers, singletons, common := edgeFleet(r, a, 24+r.Intn(17), f%2 == 0)
			classes := groupByAlloc(servers)
			vms := tightVMs(t, r, n)
			if f%4 == 3 {
				vms = randomVMs(t, r, n)
			}
			for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
				label := fmt.Sprintf("n=%d fleet %d alpha=%g", n, f, goal.Alpha)
				want, wantErr := a.AllocateReference(goal, servers, vms)
				got, _, gotErr := a.AllocateClasses(goal, classes, vms, nil)
				if gotErr != wantErr {
					t.Fatalf("%s: err %v, reference err %v", label, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				wantAssign := make([]int, n)
				for _, p := range want.Placements {
					for _, v := range p.VMs {
						wantAssign[v.ID[0]-'a'] = p.ServerID
					}
					if k, ok := singletons[p.ServerID]; ok && k != p.NewAlloc && common[p.NewAlloc] {
						grewIntoCommon++
					}
				}
				if !slices.Equal(got, wantAssign) {
					t.Errorf("%s: assignment %v, reference %v", label, got, wantAssign)
				}
			}
		}
	}
	if grewIntoCommon == 0 {
		t.Error("no reference allocation grew a singleton into a common class; the fixture no longer exercises the hiding rule")
	}
}
