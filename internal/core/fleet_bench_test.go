package core

import (
	"fmt"
	"runtime"
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// occupancyMix is a datacenter's spread of server states mid-run: idle
// servers, lightly and heavily loaded ones of every class mix, and
// servers at their per-class bounds that accept nothing more.
var occupancyMix = []model.Key{
	{},
	{NCPU: 1},
	{NCPU: 2, NMEM: 1},
	{NMEM: 1, NIO: 1},
	{},
	{NCPU: 1, NMEM: 1, NIO: 1},
	{NCPU: 4, NMEM: 3, NIO: 3},
	{NCPU: 2, NMEM: 2, NIO: 2},
	{NIO: 2},
	{NCPU: 3, NMEM: 1},
	{NMEM: 2},
}

// mixFleet builds n servers cycling through occupancyMix, so a 660- and
// a 66-server fleet hold the same allocation classes.
func mixFleet(n int) []ServerState {
	servers := make([]ServerState, n)
	for i := range servers {
		servers[i] = ServerState{ID: i, Alloc: occupancyMix[i%len(occupancyMix)]}
	}
	return servers
}

// mixVMs builds an n-VM job cycling through the classes with staggered
// nominal times and generous QoS bounds.
func mixVMs(tb testing.TB, n int) []VMRequest {
	aux := sharedDB(tb).Aux()
	vms := make([]VMRequest, n)
	for i := range vms {
		class := workload.Classes[i%workload.NumClasses]
		nominal := aux.RefTime[class] * units.Seconds(1+0.07*float64(i))
		vms[i] = VMRequest{ID: fmt.Sprint(i), Class: class, NominalTime: nominal, MaxTime: 4 * nominal}
	}
	return vms
}

// groupByAlloc groups servers, given in ascending ID order, into the
// classes AllocateClasses takes: one per allocation, in first-member
// order, each listing every member's ID.
func groupByAlloc(servers []ServerState) []ServerClass {
	var classes []ServerClass
	at := map[model.Key]int{}
	for _, s := range servers {
		ci, ok := at[s.Alloc]
		if !ok {
			ci = len(classes)
			at[s.Alloc] = ci
			classes = append(classes, ServerClass{Alloc: s.Alloc})
		}
		classes[ci].Members = append(classes[ci].Members, s.ID)
	}
	return classes
}

// typedVMs builds an n-VM job of the given number of interchangeable
// types: VM i is of type i mod types, and VMs of one type share class,
// nominal time and QoS bound.
func typedVMs(tb testing.TB, n, types int) []VMRequest {
	aux := sharedDB(tb).Aux()
	vms := make([]VMRequest, n)
	for i := range vms {
		t := i % types
		class := workload.Classes[t%workload.NumClasses]
		nominal := aux.RefTime[class] * units.Seconds(1+0.07*float64(t/workload.NumClasses))
		vms[i] = VMRequest{ID: fmt.Sprint(i), Class: class, NominalTime: nominal, MaxTime: 4 * nominal}
	}
	return vms
}

// BenchmarkAllocateFleet measures one serial allocation decision against
// a 660-server fleet in the occupancy mix: the per-decision cost of a
// datacenter-sized proactive placement. The n=N entries take the server
// list (one grouping pass per call) for a job of N VMs of distinct
// types; the indexed/ entries take the fleet pre-grouped into
// allocation classes, as a capacity index keeps it. indexed/same/n=4 is
// the job every binary builds: up to four identical VMs.
// indexed/3types/n=N are the larger jobs batched rounds would search:
// N VMs of three interchangeable types, which at n=12 have 6,721
// distinct partitions among B(12) = 4,213,597 set partitions.
func BenchmarkAllocateFleet(b *testing.B) {
	a, err := NewAllocator(Config{DB: sharedDB(b)})
	if err != nil {
		b.Fatal(err)
	}
	servers := mixFleet(660)
	classes := groupByAlloc(servers)
	indexed := func(name string, vms []VMRequest) {
		b.Run(name, func(b *testing.B) {
			dst := make([]int, len(vms))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := a.AllocateClasses(GoalBalanced, classes, vms, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1, 4} {
		vms := mixVMs(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
					b.Fatal(err)
				}
			}
		})
		indexed(fmt.Sprintf("indexed/n=%d", n), vms)
	}
	indexed("indexed/same/n=4", typedVMs(b, 4, 1))
	for _, n := range []int{8, 10, 12} {
		indexed(fmt.Sprintf("indexed/3types/n=%d", n), typedVMs(b, n, 3))
	}
}

// TestAllocateAllocsFlatInFleetSize pins that a decision's allocations
// do not grow with the fleet: ten times the servers in the same
// allocation classes cost exactly as many allocations per call, and the
// same bytes up to a 1 KB allowance for the runtime's own background
// allocations, which the heap total also counts.
func TestAllocateAllocsFlatInFleetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops recycled search scratch at random")
	}
	a, err := NewAllocator(Config{DB: sharedDB(t)})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	for _, n := range []int{1, 4} {
		vms := mixVMs(t, n)
		allocate := func(servers []ServerState) {
			if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
				t.Fatal(err)
			}
		}
		perOp := func(servers []ServerState) (allocs float64, bytes uint64) {
			allocs = testing.AllocsPerRun(runs, func() { allocate(servers) })
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < runs; i++ {
				allocate(servers)
			}
			runtime.ReadMemStats(&m1)
			return allocs, (m1.TotalAlloc - m0.TotalAlloc) / runs
		}
		smallAllocs, smallBytes := perOp(mixFleet(66))
		largeAllocs, largeBytes := perOp(mixFleet(660))
		if largeAllocs != smallAllocs || largeBytes > smallBytes+1024 {
			t.Errorf("n=%d: %v allocs, %d B per op at 660 servers; %v allocs, %d B at 66",
				n, largeAllocs, largeBytes, smallAllocs, smallBytes)
		}
	}
}

// TestAllocateClassesAllocatesNothing pins the class path's steady
// state: once the allocator's recycled scratch has grown, a decision
// over pre-grouped classes makes no heap allocation at 66, 660 or 6,600
// servers.
func TestAllocateClassesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops recycled search scratch at random")
	}
	a, err := NewAllocator(Config{DB: sharedDB(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		vms := mixVMs(t, n)
		dst := make([]int, n)
		for _, size := range []int{66, 660, 6600} {
			classes := groupByAlloc(mixFleet(size))
			allocs := testing.AllocsPerRun(100, func() {
				if _, _, err := a.AllocateClasses(GoalBalanced, classes, vms, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("n=%d, %d servers: %v allocs per decision, want 0", n, size, allocs)
			}
		}
	}
}

// BenchmarkAllocate measures one allocation decision at growing job
// sizes: an n-VM job of distinct types against the 66-server occupancy
// mix, through the pruned and memoized search.
func BenchmarkAllocate(b *testing.B) {
	benchAllocate(b, []int{4, 6, 8, 10}, (*Allocator).Allocate)
}

// BenchmarkAllocateReference measures the unpruned serial reference
// search (reference_test.go) on the same decisions: the
// pre-optimization baseline of the BenchmarkAllocate numbers.
func BenchmarkAllocateReference(b *testing.B) {
	benchAllocate(b, []int{4, 6, 8}, (*Allocator).AllocateReference)
}

func benchAllocate(b *testing.B, sizes []int, allocate func(*Allocator, Goal, []ServerState, []VMRequest) (Allocation, error)) {
	a, err := NewAllocator(Config{DB: sharedDB(b)})
	if err != nil {
		b.Fatal(err)
	}
	servers := mixFleet(66)
	for _, n := range sizes {
		vms := mixVMs(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := allocate(a, GoalBalanced, servers, vms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
