package strategy

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// naiveClasses is the obvious recomputation FleetIndex.Classes must
// agree with: walk the up servers in id order, group them by
// allocation, keep each class's first maxMembers members, and order the
// classes by their lowest member.
func naiveClasses(alloc []model.Key, down []bool, maxMembers int) []core.ServerClass {
	var out []core.ServerClass
	at := map[model.Key]int{}
	for i, k := range alloc {
		if down[i] {
			continue
		}
		ci, ok := at[k]
		if !ok {
			ci = len(out)
			at[k] = ci
			out = append(out, core.ServerClass{Alloc: k})
		}
		if len(out[ci].Members) < maxMembers {
			out[ci].Members = append(out[ci].Members, i)
		}
	}
	return out
}

// upView is the linear strategies' view of the index's up servers in
// id order.
func upView(idx *FleetIndex) []Server {
	var view []Server
	for i := 0; i < idx.Len(); i++ {
		if !idx.Down(i) {
			view = append(view, Server{ID: i, Alloc: idx.Alloc(i)})
		}
	}
	return view
}

// paJobs are the requests the class differential places at each
// checkpoint: one to four VMs, mixed classes, loose and tight QoS.
func paJobs(t *testing.T) [][]core.VMRequest {
	aux := sharedDB(t).Aux()
	var jobs [][]core.VMRequest
	for n := 1; n <= 4; n++ {
		for _, qos := range []float64{0, 1.6} {
			vms := make([]core.VMRequest, n)
			for i := range vms {
				c := workload.Classes[(n+i)%workload.NumClasses]
				vms[i] = core.VMRequest{
					ID: fmt.Sprint(i), Class: c, NominalTime: aux.RefTime[c],
					MaxTime: units.Seconds(qos * float64(aux.RefTime[c])),
				}
			}
			jobs = append(jobs, vms)
		}
	}
	return jobs
}

// TestFleetIndexClassesMatchGrouping drives random Add/SetDown/SetUp
// sequences and queries the classes after every burst of one to eight
// mutations, comparing the index's incrementally kept classes — and
// the class order it carries over from the previous query — with a
// from-scratch grouping of the equivalent up-server view, and running
// AuditInvariants with its re-derived class membership. The bursts
// retire classes and reuse their sets for other allocations between
// two queries. Every query's classes must be accepted by the
// allocator, which rejects classes out of order. At checkpoints the
// proactive strategy places every probe job through the index and
// through the linear view; both must choose the same servers, which
// ties the index's classes to the allocator's own per-call grouping.
// The fleet mixes servers overfilled past the index ceiling, servers
// at the allocator's MaxVMsPerServer (which the search must skip), and
// down servers.
func TestFleetIndexClassesMatchGrouping(t *testing.T) {
	const servers, maxOcc, paMax = 40, 6, 5
	pa, err := NewProactiveConfig(core.Config{DB: sharedDB(t), MaxVMsPerServer: paMax}, core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	allocator, err := core.NewAllocator(core.Config{DB: sharedDB(t), MaxVMsPerServer: paMax})
	if err != nil {
		t.Fatal(err)
	}
	probe := mkVMs(t, workload.ClassCPU, 1, 0)
	jobs := paJobs(t)
	r := rng.New(17)
	idx := NewFleetIndex(servers, maxOcc)
	alloc := make([]model.Key, servers)
	down := make([]bool, servers)
	dst := make([]int, 4)
	// mutate applies one random Add/SetDown/SetUp to the index and the
	// ground truth alike.
	mutate := func() {
		i := r.Intn(servers)
		c := workload.Classes[r.Intn(workload.NumClasses)]
		switch op := r.Intn(10); {
		case op < 5 && alloc[i].Total() < maxOcc+2: // may overfill past the ceiling
			idx.Add(i, c, 1)
			alloc[i] = alloc[i].Add(model.KeyFor(c, 1))
		case op < 8 && alloc[i].Count(c) > 0:
			idx.Add(i, c, -1)
			alloc[i] = alloc[i].Add(model.KeyFor(c, -1))
		case op == 8 && !down[i]:
			idx.SetDown(i)
			down[i] = true
		case op == 9 && down[i]:
			idx.SetUp(i)
			down[i] = false
		}
	}
	// setKeys records which allocation each set held at the last query;
	// a set holding another allocation now was retired and reused.
	setKeys := map[int32]model.Key{}
	sawOver, sawFull, sawDown, sawReuse := false, false, false, false
	for step := 0; step < 3000; step++ {
		for burst := 1 + r.Intn(8); burst > 0; burst-- {
			mutate()
		}
		for j := range alloc {
			sawOver = sawOver || (!down[j] && alloc[j].Total() > maxOcc)
			sawFull = sawFull || (!down[j] && alloc[j].Total() == paMax)
			sawDown = sawDown || down[j]
		}
		if step == 0 {
			continue // the first query below builds the classes
		}
		k := 1 + r.Intn(5)
		got, want := idx.Classes(k), naiveClasses(alloc, down, k)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d classes, naive grouping has %d", step, len(got), len(want))
		}
		for ci := range want {
			if got[ci].Alloc != want[ci].Alloc || !slices.Equal(got[ci].Members, want[ci].Members) {
				t.Fatalf("step %d class %d: %v %v, naive %v %v",
					step, ci, got[ci].Alloc, got[ci].Members, want[ci].Alloc, want[ci].Members)
			}
		}
		if _, _, err := allocator.AllocateClasses(core.GoalBalanced, got, probe, nil); err != nil && !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("step %d: allocator rejects the index's classes: %v", step, err)
		}
		for s := range idx.classes.sets {
			c := &idx.classes.sets[s]
			if c.n == 0 {
				continue
			}
			if k, ok := setKeys[int32(s)]; ok && k != c.key {
				sawReuse = true
			}
			setKeys[int32(s)] = c.key
		}
		if err := idx.AuditInvariants(func(j int) model.Key { return alloc[j] }); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step%100 == 0 {
			view := upView(idx)
			for _, vms := range jobs {
				wantA, wantOK, wantInfo := pa.PlaceExplained(view, vms)
				gotA, gotOK, gotInfo := pa.PlaceIndexedExplained(idx, vms, dst)
				if gotOK != wantOK || (wantOK && !slices.Equal(gotA, wantA)) || gotInfo != wantInfo {
					t.Fatalf("step %d, %d VMs: indexed %v %v %+v, linear %v %v %+v",
						step, len(vms), gotA, gotOK, gotInfo, wantA, wantOK, wantInfo)
				}
			}
		}
	}
	if !sawOver || !sawFull || !sawDown || !sawReuse {
		t.Errorf("walk missed a case: overfilled %v, at the allocator cap %v, down %v, set reused between queries %v",
			sawOver, sawFull, sawDown, sawReuse)
	}
}

// TestFleetIndexClassAuditCatchesCorruption seeds each kind of class
// corruption into an otherwise consistent index and requires
// AuditInvariants to report it.
func TestFleetIndexClassAuditCatchesCorruption(t *testing.T) {
	build := func() (*FleetIndex, func(int) model.Key) {
		idx := NewFleetIndex(6, 4)
		idx.Add(0, workload.ClassCPU, 1)
		idx.Add(1, workload.ClassCPU, 1)
		idx.Add(2, workload.ClassMEM, 2)
		idx.SetDown(3)
		idx.Classes(2)
		truth := make([]model.Key, 6)
		for i := range truth {
			truth[i] = idx.Alloc(i)
		}
		return idx, func(i int) model.Key { return truth[i] }
	}
	idx, truth := build()
	if err := idx.AuditInvariants(truth); err != nil {
		t.Fatalf("consistent index fails its audit: %v", err)
	}
	corruptions := map[string]func(ci *classIndex){
		"member bit dropped":         func(ci *classIndex) { ci.sets[ci.of[0]].members.clear(0) },
		"extra member bit":           func(ci *classIndex) { ci.sets[ci.of[0]].members.set(5) },
		"count drifted":              func(ci *classIndex) { ci.sets[ci.of[2]].n++ },
		"down server filed":          func(ci *classIndex) { ci.of[3] = ci.of[4] },
		"server misfiled":            func(ci *classIndex) { ci.of[0] = ci.of[2] },
		"lookup lost":                func(ci *classIndex) { delete(ci.slot, ci.sets[ci.of[2]].packed) },
		"order lost a set":           func(ci *classIndex) { ci.order = ci.order[1:] },
		"order repeats a set":        func(ci *classIndex) { ci.order[0] = ci.order[1] },
		"cached head stale":          func(ci *classIndex) { ci.sets[ci.of[0]].head = ci.sets[ci.of[0]].head[:1] },
		"stale set not listed":       func(ci *classIndex) { ci.sets[ci.of[0]].stale = true },
		"cached lowest member wrong": func(ci *classIndex) { ci.low[ci.of[2]]++ },
	}
	for name, corrupt := range corruptions {
		idx, truth := build()
		corrupt(idx.classes)
		if err := idx.AuditInvariants(truth); err == nil {
			t.Errorf("%s: audit passed a corrupted class index", name)
		}
	}
}

// TestFleetIndexClassesCachedHeads changes only the fifth member of one
// class between queries at different member counts: the query must
// re-read that class's head, every other class's cached head must stay
// fresh, and a head cached for five members must answer a query for two.
func TestFleetIndexClassesCachedHeads(t *testing.T) {
	const servers = 16
	idx := NewFleetIndex(servers, 4)
	alloc := make([]model.Key, servers)
	down := make([]bool, servers)
	for i := 0; i < servers; i += 3 { // servers 0, 3, 6, … form a second class
		idx.Add(i, workload.ClassMEM, 1)
		alloc[i] = model.KeyFor(workload.ClassMEM, 1)
	}
	check := func(label string, k int) {
		t.Helper()
		got, want := idx.Classes(k), naiveClasses(alloc, down, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, k=%d: %v, naive %v", label, k, got, want)
		}
		if err := idx.AuditInvariants(func(i int) model.Key { return alloc[i] }); err != nil {
			t.Fatalf("%s, k=%d: %v", label, k, err)
		}
	}
	check("initial", 5)
	// The empty class holds 1, 2, 4, 5, 7, 8, …: server 7 is its fifth.
	idx.SetDown(7)
	down[7] = true
	if c := &idx.classes.sets[idx.classes.of[0]]; c.stale {
		t.Error("taking down a member of one class marked another class's head stale")
	}
	check("fifth member down", 2)
	check("fifth member down", 5)
	// Server 14 lies past every cached head: its class stays fresh.
	idx.SetDown(14)
	down[14] = true
	if c := &idx.classes.sets[idx.classes.of[1]]; c.stale {
		t.Error("a member past the cached head marked its class stale")
	}
	check("member past the head down", 5)
	idx.SetUp(7)
	down[7] = false
	check("fifth member back", 2)
	check("fifth member back", 5)
}

// TestProactiveDuplicateVMIDs is the regression test for jobs whose VMs
// share an ID: they must place exactly as the same job with distinct
// IDs, through Place and through PlaceIndexed.
func TestProactiveDuplicateVMIDs(t *testing.T) {
	pa, err := NewProactive(sharedDB(t), core.GoalPerformance)
	if err != nil {
		t.Fatal(err)
	}
	named := mkVMs(t, workload.ClassCPU, 2, 0)
	dup := slices.Clone(named)
	for i := range dup {
		dup[i].ID = ""
	}
	want, ok := pa.Place(mkServers(3), named)
	if !ok {
		t.Fatal("distinct-ID job refused")
	}
	if got, ok := pa.Place(mkServers(3), dup); !ok || !slices.Equal(got, want) {
		t.Errorf("Place with duplicate IDs: %v %v, want %v", got, ok, want)
	}
	if got, ok := pa.PlaceIndexed(NewFleetIndex(3, 16), dup, nil); !ok || !slices.Equal(got, want) {
		t.Errorf("PlaceIndexed with duplicate IDs: %v %v, want %v", got, ok, want)
	}
}

// mixIndex builds an index over n servers cycling through a spread of
// occupancies, so fleets of different sizes hold the same classes.
func mixIndex(n int) *FleetIndex {
	mix := []model.Key{{}, {NCPU: 1}, {NCPU: 2, NMEM: 1}, {NMEM: 1, NIO: 1}, {}, {NIO: 2}, {NCPU: 3, NMEM: 1}}
	idx := NewFleetIndex(n, 16)
	for i := 0; i < n; i++ {
		k := mix[i%len(mix)]
		for _, c := range workload.Classes {
			if k.Count(c) > 0 {
				idx.Add(i, c, k.Count(c))
			}
		}
	}
	return idx
}

// TestProactivePlaceIndexedAllocsFlat pins the indexed decision's heap
// allocations at zero, in steady state, on fleets of 66, 660 and 6,600
// servers: neither the class query nor the search grows with the fleet.
func TestProactivePlaceIndexedAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops recycled search scratch at random")
	}
	pa, err := NewProactive(sharedDB(t), core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		vms := mkVMs(t, workload.ClassMEM, n, 3)
		dst := make([]int, n)
		for _, size := range []int{66, 660, 6600} {
			idx := mixIndex(size)
			allocs := testing.AllocsPerRun(100, func() {
				if _, ok := pa.PlaceIndexed(idx, vms, dst); !ok {
					t.Fatal("placement refused")
				}
			})
			if allocs != 0 {
				t.Errorf("n=%d, %d servers: %v allocs per decision, want 0", n, size, allocs)
			}
		}
	}
}

// TestProactivePlaceIndexedConcurrent shares one Proactive value among
// goroutines that each place through an index of their own (as sharded
// simulations do); every goroutine must see exactly the sequential
// answers. Run under -race by make race-sim.
func TestProactivePlaceIndexedConcurrent(t *testing.T) {
	pa, err := NewProactive(sharedDB(t), core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	jobs := paJobs(t)
	// run places every job in turn on a fresh index, committing each
	// placement, and returns the assignments.
	run := func() [][]int {
		idx := mixIndex(96)
		var out [][]int
		dst := make([]int, 4)
		for rep := 0; rep < 3; rep++ {
			for _, vms := range jobs {
				assign, ok := pa.PlaceIndexed(idx, vms, dst)
				if !ok {
					out = append(out, nil)
					continue
				}
				out = append(out, slices.Clone(assign))
				for v, s := range assign {
					idx.Add(s, vms[v].Class, 1)
				}
			}
		}
		return out
	}
	want := run()
	const goroutines = 4
	got := make([][][]int, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = run()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d placed differently from the sequential run", g)
		}
	}
}

// BenchmarkFleetIndexClasses measures one class query against a
// 660-server fleet in the occupancy mix, with four mutations between
// queries as a placement stream makes them: the previous round's two
// VMs leave and two new ones arrive, each moving a server between
// classes and most shifting some class's lowest member.
func BenchmarkFleetIndexClasses(b *testing.B) {
	benchClasses(b, mixIndex(660), 2)
}

// BenchmarkFleetIndexClassesRetired is BenchmarkFleetIndexClasses over
// retiredIndex with three VMs moving per round: the shape a sim-pa
// query meets, about 41 class sets, 18 of them live and 3 stale.
func BenchmarkFleetIndexClassesRetired(b *testing.B) {
	benchClasses(b, retiredIndex(660), 3)
}

// benchClasses times Classes(5) on idx, with the previous round's moves
// VMs leaving and moves new ones arriving before each query.
func benchClasses(b *testing.B, idx *FleetIndex, moves int) {
	servers := len(idx.alloc)
	idx.Classes(5)
	placed := make([]int, moves)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, s := range placed {
			if i > 0 {
				idx.Add(s, workload.ClassCPU, -1)
			}
			placed[k] = (i*191 + k*331) % servers
			idx.Add(placed[k], workload.ClassCPU, 1)
		}
		if len(idx.Classes(5)) == 0 {
			b.Fatal("no classes")
		}
	}
}

// retiredIndex builds an n-server fleet whose class index holds 40
// class sets, 17 of them live: every server first takes one of 40
// allocations (all keys of at most 4 VMs, then five of 5), the grouping
// is built, and the servers of the last 23 allocations then move to the
// first 17, retiring those sets. A sim-pa run's class queries meet
// about that many sets, most of them retired.
func retiredIndex(n int) *FleetIndex {
	var keys []model.Key
	for total := 0; len(keys) < 40; total++ {
		for c := total; c >= 0 && len(keys) < 40; c-- {
			for m := total - c; m >= 0 && len(keys) < 40; m-- {
				keys = append(keys, model.Key{NCPU: c, NMEM: m, NIO: total - c - m})
			}
		}
	}
	idx := NewFleetIndex(n, 16)
	move := func(i int, from, to model.Key) {
		for _, c := range workload.Classes {
			if d := to.Count(c) - from.Count(c); d != 0 {
				idx.Add(i, c, d)
			}
		}
	}
	for i := 0; i < n; i++ {
		move(i, model.Key{}, keys[i%len(keys)])
	}
	idx.Classes(5)
	for i := 0; i < n; i++ {
		if k := i % len(keys); k >= 17 {
			move(i, keys[k], keys[i%17])
		}
	}
	return idx
}
