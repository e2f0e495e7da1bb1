package core

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// randomFleet builds nServers servers with small valid residual
// allocations drawn from r.
func randomFleet(r *rng.Stream, nServers int) []ServerState {
	servers := make([]ServerState, nServers)
	for i := range servers {
		servers[i] = ServerState{ID: i}
		if r.Bool(0.6) {
			servers[i].Alloc = model.Key{
				NCPU: r.Intn(3),
				NMEM: r.Intn(2),
				NIO:  r.Intn(2),
			}
		}
	}
	return servers
}

// randomVMs builds n VM requests with attributes drawn from small pools
// so that some VMs are interchangeable and some are not.
func randomVMs(t *testing.T, r *rng.Stream, n int) []VMRequest {
	t.Helper()
	factors := []float64{1, 1, 1.25, 1.5}
	vms := make([]VMRequest, n)
	for i := range vms {
		class := workload.Classes[r.Intn(workload.NumClasses)]
		nominal := refTime(t, class) * units.Seconds(factors[r.Intn(len(factors))])
		var max units.Seconds
		switch r.Intn(3) {
		case 1:
			max = nominal * 4
		case 2:
			max = nominal * 3 / 2
		}
		vms[i] = VMRequest{ID: string(rune('a' + i)), Class: class, NominalTime: nominal, MaxTime: max}
	}
	return vms
}

// tightVMs is randomVMs with QoS bounds a few percent above the nominal
// time, tight enough that co-location can break them: a block may then
// fit a server's grown allocation on its own QoS yet break the QoS of
// VMs the partition placed there earlier.
func tightVMs(t *testing.T, r *rng.Stream, n int) []VMRequest {
	t.Helper()
	vms := randomVMs(t, r, n)
	slack := []float64{0, 1.02, 1.04, 1.2}
	for i := range vms {
		if f := slack[r.Intn(len(slack))]; f > 0 {
			vms[i].MaxTime = vms[i].NominalTime * units.Seconds(f)
		} else {
			vms[i].MaxTime = 0
		}
	}
	return vms
}

// sameAllocation asserts two allocations are bit-for-bit identical:
// same placements in the same order, same servers, same VM identities,
// exactly equal estimated times and the same total energy (each block's
// energy is compared by TestEvalPartitionMatchesReference).
func sameAllocation(t *testing.T, label string, got, want Allocation) {
	t.Helper()
	if got.EstTime != want.EstTime || got.EstEnergy != want.EstEnergy {
		t.Errorf("%s: totals (%v, %v) != reference (%v, %v)",
			label, got.EstTime, got.EstEnergy, want.EstTime, want.EstEnergy)
	}
	if len(got.Placements) != len(want.Placements) {
		t.Fatalf("%s: %d placements, reference has %d", label, len(got.Placements), len(want.Placements))
	}
	for i := range got.Placements {
		g, w := got.Placements[i], want.Placements[i]
		if g.ServerID != w.ServerID || g.NewAlloc != w.NewAlloc || g.EstTime != w.EstTime {
			t.Errorf("%s: placement %d = {srv %d alloc %v t %v}, reference {srv %d alloc %v t %v}",
				label, i, g.ServerID, g.NewAlloc, g.EstTime,
				w.ServerID, w.NewAlloc, w.EstTime)
		}
		if len(g.VMs) != len(w.VMs) {
			t.Fatalf("%s: placement %d has %d VMs, reference %d", label, i, len(g.VMs), len(w.VMs))
		}
		for j := range g.VMs {
			if g.VMs[j].ID != w.VMs[j].ID {
				t.Errorf("%s: placement %d VM %d = %q, reference %q", label, i, j, g.VMs[j].ID, w.VMs[j].ID)
			}
		}
	}
}

// TestAllocateMatchesReference is the equivalence satellite: the
// pruned/memoized engine must return the
// identical Allocation as the retained literal transcription of the
// paper's search, across seeded random fleets, all three evaluated α
// goals, and VM sets up to n = 8.
//
// The small fleets (4-8 servers) mostly hold distinct allocations. The
// wide fleets (64-96 servers) draw from five interleaved allocations, so
// the class-grouped candidate scan matters: every class holds far more
// servers than a partition can touch, one class is too full to host any
// VM, and a rare class of empty servers is smaller than the partition's
// block count, so the search must exhaust it and then skip it. Their VMs
// carry tight QoS bounds (tightVMs), so a touched server's earlier VMs
// can reject a block its untouched twins would take.
func TestAllocateMatchesReference(t *testing.T) {
	db := sharedDB(t)
	serial, err := NewAllocator(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	for n := 2; n <= 8; n++ {
		servers := randomFleet(r, 4+r.Intn(5))
		vms := randomVMs(t, r, n)
		matchReference(t, serial, servers, vms, nil)
	}

	common := wideFleetCommon(serial)
	r = rng.New(41)
	exhausted := 0
	for n := 2; n <= 8; n++ {
		fleets := 2
		if n <= 5 {
			fleets = 12 // small searches are cheap; sample more fleets
		}
		for f := 0; f < fleets; f++ {
			front := f%2 == 1
			nRare := 1 + r.Intn(n-1) // fewer rare servers than the n singleton blocks
			servers, rareIDs := classFleet(r, 64+r.Intn(33), common, model.Key{}, nRare, front)
			vms := tightVMs(t, r, n)
			exhausted += matchReference(t, serial, servers, vms, rareIDs)
		}
	}
	if exhausted == 0 {
		t.Error("no wide-fleet case placed blocks on every rare-class server; the fixture no longer exercises class exhaustion")
	}
}

// matchReference checks Allocate against AllocateReference under every
// evaluated goal. It returns how many reference allocations placed
// blocks on every server in rareIDs.
func matchReference(t *testing.T, serial *Allocator, servers []ServerState, vms []VMRequest, rareIDs map[int]bool) (exhausted int) {
	t.Helper()
	for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
		want, wantErr := serial.AllocateReference(goal, servers, vms)
		if wantErr == nil && len(rareIDs) > 0 {
			used := map[int]bool{}
			for _, p := range want.Placements {
				if rareIDs[p.ServerID] {
					used[p.ServerID] = true
				}
			}
			if len(used) == len(rareIDs) {
				exhausted++
			}
		}
		got, gotErr := serial.Allocate(goal, servers, vms)
		label := fmt.Sprintf("serial n=%d alpha=%g servers=%d", len(vms), goal.Alpha, len(servers))
		if gotErr != wantErr {
			t.Errorf("%s: err %v, reference err %v", label, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		sameAllocation(t, label, got, want)
	}
	return exhausted
}

// classFleet builds a wide fleet of nServers servers whose allocations
// interleave the common keys at random, except that exactly nRare
// servers hold the rare key: the first nRare servers when front is set,
// random ones otherwise. Rare servers in front, once grown, precede the
// first members of the common classes their grown allocation joins.
func classFleet(r *rng.Stream, nServers int, common []model.Key, rare model.Key, nRare int, front bool) (servers []ServerState, rareIDs map[int]bool) {
	servers = make([]ServerState, nServers)
	for i := range servers {
		servers[i] = ServerState{ID: 1000 + i, Alloc: common[r.Intn(len(common))]}
	}
	rareIDs = make(map[int]bool, nRare)
	for len(rareIDs) < nRare {
		i := len(rareIDs)
		if !front {
			i = r.Intn(nServers)
		}
		if !rareIDs[servers[i].ID] {
			servers[i].Alloc = rare
			rareIDs[servers[i].ID] = true
		}
	}
	return servers, rareIDs
}

// wideFleetCommon are the common allocations of the wide fleets: lightly
// loaded servers of several class mixes, plus servers so full
// (MaxVMsPerServer VMs) that they can host nothing.
func wideFleetCommon(a *Allocator) []model.Key {
	return []model.Key{
		{NCPU: 1},
		{NMEM: 1, NIO: 1},
		{NCPU: 1, NMEM: 1},
		{NCPU: a.cfg.MaxVMsPerServer},
	}
}

// loadCtx loads a request into a search context exactly as
// AllocateExplained does, with the worker ready to evaluate the
// request's partition list, which it returns too.
func loadCtx(t *testing.T, a *Allocator, goal Goal, servers []ServerState, vms []VMRequest) (*searchCtx, *partitionList) {
	t.Helper()
	sc := a.acquire(goal, vms)
	if err := sc.groupServers(servers); err != nil {
		t.Fatal(err)
	}
	pl, err := sc.partitions()
	if err != nil {
		t.Fatal(err)
	}
	sc.w.reset(sc, pl)
	return sc, pl
}

// TestEvalPartitionMatchesReference compares the class-grouped block
// placement with the reference's full-fleet scan partition by partition,
// not only through the winner: every partition of the VM set must place
// on the same servers at the same priced allocations, or be infeasible
// in both. Tight QoS bounds make a touched server's earlier VMs reject
// blocks that a same-allocation untouched server would accept, so the
// dedup order of the candidates is observable.
func TestEvalPartitionMatchesReference(t *testing.T) {
	a := mkAllocator(t)
	compare := func(servers []ServerState, vms []VMRequest) {
		t.Helper()
		n := len(vms)
		for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
			sc, pl := loadCtx(t, a, goal, servers, vms)
			w := &sc.w
			_, err := forEachPartition(n, func(blocks [][]int) bool {
				ref, refOK := a.evalPartitionReference(goal, servers, vms, blocks)
				ok := w.evalPartition(pl.compIDs(sc.typeOf, blocks))
				if ok != refOK {
					t.Fatalf("n=%d alpha=%g %v: feasible %v, reference %v", n, goal.Alpha, blocks, ok, refOK)
				}
				for i := 0; ok && i < len(blocks); i++ {
					got, want := w.places[i], ref.blocks[i]
					if id := sc.serverID(got.server); id != want.ServerID || got.after != want.NewAlloc ||
						got.time != want.EstTime || got.energy != want.energy {
						t.Fatalf("n=%d alpha=%g %v block %d: {srv %d alloc %v}, reference {srv %d alloc %v}",
							n, goal.Alpha, blocks, i, id, got.after, want.ServerID, want.NewAlloc)
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Directed case: under the performance goal the QoS-bound CPU VM a
	// takes the lone empty server 0, growing it to (1,0,0) ahead of every
	// server of that class. The next block {b, c} would lift it to
	// (3,0,0) and break a's bound, and server 0 — the first server at
	// that allocation — hides the untouched (1,0,0) servers, exactly as
	// the full scan's dedup does.
	cpu := refTime(t, workload.ClassCPU)
	directed := []ServerState{{ID: 0}}
	for i := 1; i < 64; i++ {
		directed = append(directed, ServerState{ID: i, Alloc: wideFleetCommon(a)[i%3]})
	}
	compare(directed, []VMRequest{
		vm("a", workload.ClassCPU, cpu, cpu*1.02),
		vm("b", workload.ClassCPU, cpu, 0),
		vm("c", workload.ClassCPU, cpu, 0),
	})

	r := rng.New(47)
	for n := 2; n <= 6; n++ {
		for f := 0; f < 6; f++ {
			servers, _ := classFleet(r, 64+r.Intn(33), wideFleetCommon(a), model.Key{}, 1+r.Intn(n-1), f%2 == 1)
			compare(servers, tightVMs(t, r, n))
		}
	}
}

// TestWideFleetCutsDegradeToFirstFit pins the two search cuts on a wide
// fleet: an exhausted budget and a firing Cancel hook both return
// exactly the first-fit fallback.
func TestWideFleetCutsDegradeToFirstFit(t *testing.T) {
	db := sharedDB(t)
	r := rng.New(43)
	probe := mkAllocator(t)
	servers, _ := classFleet(r, 80, wideFleetCommon(probe), model.Key{}, 2, false)
	vms := randomVMs(t, r, 7)
	want, err := probe.firstFitReference(servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfgs := map[string]Config{
		"budget": {DB: db, SearchBudget: 5},
		"cancel": {DB: db, Cancel: func() bool { calls++; return calls > 5 }},
	}
	for name, cfg := range cfgs {
		a, err := NewAllocator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := a.AllocateExplained(GoalBalanced, servers, vms)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Exhausted || !stats.Degraded {
			t.Fatalf("%s: cut not reported: stats %+v", name, stats)
		}
		sameAllocation(t, name, got, want)
	}
}

// randomRGS draws a uniform valid restricted-growth string of length n
// and materializes its blocks.
func randomRGS(r *rng.Stream, n int) [][]int {
	a := make([]int, n)
	mx := 0
	for i := 1; i < n; i++ {
		a[i] = r.Intn(mx + 2)
		if a[i] > mx {
			mx = a[i]
		}
	}
	blocks := make([][]int, mx+1)
	for i, v := range a {
		blocks[v] = append(blocks[v], i)
	}
	return blocks
}

// TestPartitionSignatureProperty is the signature satellite: two
// partitions get equal typed-multiset signatures iff the legacy string
// canonicalization — the previous implementation, kept as the spec —
// also considers them equal.
func TestPartitionSignatureProperty(t *testing.T) {
	r := rng.New(23)
	f := func(nRaw, seedRaw uint8) bool {
		n := int(nRaw%7) + 2
		vms := make([]VMRequest, n)
		nominals := []units.Seconds{600, 900}
		maxes := []units.Seconds{0, 2400}
		for i := range vms {
			vms[i] = VMRequest{
				ID:          string(rune('a' + i)),
				Class:       workload.Classes[r.Intn(workload.NumClasses)],
				NominalTime: nominals[r.Intn(len(nominals))],
				MaxTime:     maxes[r.Intn(len(maxes))],
			}
		}
		b1 := randomRGS(r, n)
		b2 := randomRGS(r, n)
		typeOf, types := vmTypes(vms, nil, nil)
		if len(types) > n {
			return false
		}
		newEq := sigOfPartition(typeOf, b1) == sigOfPartition(typeOf, b2)
		legacyEq := legacyPartitionSignature(vms, b1) == legacyPartitionSignature(vms, b2)
		return newEq == legacyEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestVMTypesInterchangeability pins the type-table construction: ids
// collapse exactly on (class, nominal, QoS) equality.
func TestVMTypesInterchangeability(t *testing.T) {
	vms := []VMRequest{
		{ID: "a", Class: workload.ClassCPU, NominalTime: 600},
		{ID: "b", Class: workload.ClassCPU, NominalTime: 600},
		{ID: "c", Class: workload.ClassCPU, NominalTime: 900},
		{ID: "d", Class: workload.ClassMEM, NominalTime: 600},
		{ID: "e", Class: workload.ClassCPU, NominalTime: 600, MaxTime: 1200},
		{ID: "f", Class: workload.ClassCPU, NominalTime: 600},
	}
	typeOf, types := vmTypes(vms, nil, nil)
	if len(types) != 4 {
		t.Fatalf("types = %d, want 4", len(types))
	}
	want := []uint8{0, 0, 1, 2, 3, 0}
	for i, w := range want {
		if typeOf[i] != w {
			t.Errorf("typeOf[%d] = %d, want %d", i, typeOf[i], w)
		}
	}
}

// TestPickBestTieBreak is the small-fix satellite: two candidates with
// equal normalized scores must select the earlier enumeration index,
// under every goal, and a later candidate must win only when strictly
// better than the epsilon band.
func TestPickBestTieBreak(t *testing.T) {
	goals := []Goal{GoalEnergy, GoalPerformance, GoalBalanced}
	tied := []candidate{
		{time: 100, energy: 200},
		{time: 100, energy: 200},
	}
	for _, g := range goals {
		if got := pickBest(g, tied, 100, 200); got != 0 {
			t.Errorf("alpha=%g: tied candidates picked %d, want earlier index 0", g.Alpha, got)
		}
	}
	// A later, strictly dominating candidate wins.
	better := []candidate{
		{time: 100, energy: 200},
		{time: 50, energy: 100},
	}
	for _, g := range goals {
		if got := pickBest(g, better, 100, 200); got != 1 {
			t.Errorf("alpha=%g: strictly better candidate not picked (got %d)", g.Alpha, got)
		}
	}
	// A later candidate inside the epsilon band does not dethrone the
	// incumbent: its normalized score differs by ~1e-14 < scoreEpsilon.
	within := []candidate{
		{time: 100, energy: 200},
		{time: 100 * (1 - 1e-14), energy: 200 * (1 - 1e-14)},
	}
	for _, g := range goals {
		if got := pickBest(g, within, 100, 200); got != 0 {
			t.Errorf("alpha=%g: epsilon-tied candidate dethroned the incumbent (got %d)", g.Alpha, got)
		}
	}
}

// TestParetoFrontierKeepsWinner checks the pruning invariant directly:
// for a random search the frontier the engine retains must contain the
// winner the unpruned reference selects, for every goal.
func TestParetoFrontierKeepsWinner(t *testing.T) {
	a := mkAllocator(t)
	r := rng.New(31)
	servers := randomFleet(r, 5)
	vms := randomVMs(t, r, 6)
	for _, goal := range []Goal{GoalEnergy, GoalPerformance, GoalBalanced} {
		want, err := a.AllocateReference(goal, servers, vms)
		if err != nil {
			t.Fatal(err)
		}
		sc, pl := loadCtx(t, a, goal, servers, vms)
		if sc.enumerate(pl) {
			t.Fatal("unbudgeted search reported exhaustion")
		}
		w := &sc.w
		best := pickBest(goal, w.frontier, w.maxT, w.maxE)
		got := sc.materialize(w.frontier[best])
		sameAllocation(t, "frontier", got, want)
	}
}

// TestSearchTelemetryInvariants runs an instrumented search and checks
// the bookkeeping identities that tie the counters to the search's
// structure: every enumerated partition is either deduped or
// evaluated, every evaluated candidate lands in exactly one of
// feasible/infeasible, and the registry counters agree with the
// call's exact SearchStats.
func TestSearchTelemetryInvariants(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAllocator(Config{DB: sharedDB(t), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	servers := randomFleet(r, 6)
	vms := randomVMs(t, r, 9) // Bell(9) = 21147 partitions
	_, stats, err := a.AllocateExplained(GoalBalanced, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	enumerated := snap.Counters["search_partitions_enumerated"]
	deduped := snap.Counters["search_partitions_deduped"]
	feasible := snap.Counters["search_candidates_feasible"]
	infeasible := snap.Counters["search_candidates_infeasible"]
	if enumerated == 0 || deduped == 0 || feasible == 0 {
		t.Fatalf("counters not populated: %+v", snap.Counters)
	}
	if feasible+infeasible != enumerated-deduped {
		t.Errorf("feasible (%d) + infeasible (%d) != enumerated (%d) - deduped (%d)",
			feasible, infeasible, enumerated, deduped)
	}
	if int64(stats.Enumerated) != enumerated || int64(stats.Deduped) != deduped ||
		int64(stats.Feasible) != feasible || int64(stats.Infeasible) != infeasible ||
		int64(stats.Pruned) != snap.Counters["search_pareto_pruned"] {
		t.Errorf("SearchStats %+v disagree with the registry counters %+v", stats, snap.Counters)
	}
	if snap.Counters["model_cache_hits"] == 0 || snap.Counters["model_cache_misses"] == 0 {
		t.Error("search did not exercise the instrumented estimate cache")
	}
}

// TestSearchTelemetryConcurrentAllocations drives several searches at
// once through one shared allocator and registry (run under -race in
// `make verify` and CI): the searches share the context pool and the
// estimate cache and update the same counters concurrently, and the
// aggregate must still balance.
func TestSearchTelemetryConcurrentAllocations(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := NewAllocator(Config{DB: sharedDB(t), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(100 + uint64(g))
			for i := 0; i < 3; i++ {
				servers := randomFleet(r, 5)
				vms := randomVMs(t, r, 7)
				if _, err := a.Allocate(GoalBalanced, servers, vms); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	snap := reg.Snapshot()
	enumerated := snap.Counters["search_partitions_enumerated"]
	deduped := snap.Counters["search_partitions_deduped"]
	feasible := snap.Counters["search_candidates_feasible"]
	infeasible := snap.Counters["search_candidates_infeasible"]
	if feasible+infeasible != enumerated-deduped {
		t.Errorf("aggregate imbalance: feasible (%d) + infeasible (%d) != enumerated (%d) - deduped (%d)",
			feasible, infeasible, enumerated, deduped)
	}
	if enumerated == 0 {
		t.Error("no partitions enumerated")
	}
}
