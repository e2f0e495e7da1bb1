package core

import (
	"fmt"
	"slices"
	"testing"

	"pacevm/internal/partition"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// blockSig is the typed-multiset signature of one block: VM counts
// packed 4 bits per VM type. partition.MaxN = 12 bounds both the number
// of distinct types and any count at 12, so 48 bits suffice and two
// blocks have equal signatures iff their typed multisets are equal.
type blockSig uint64

// partSig canonicalizes a whole partition as its sorted multiset of
// block signatures, zero-padded (a block is never empty, so a zero entry
// is unambiguous padding). Two partitions have equal signatures iff
// their multisets of block compositions are equal.
type partSig [partition.MaxN]blockSig

// sigOfBlock folds a block's members into its packed type-count vector.
func sigOfBlock(typeOf []uint8, block []int) blockSig {
	var sig blockSig
	for _, vi := range block {
		sig += 1 << (4 * blockSig(typeOf[vi]))
	}
	return sig
}

// sigOfPartition canonicalizes a partition: block signatures, insertion-
// sorted descending into a fixed array.
func sigOfPartition(typeOf []uint8, blocks [][]int) partSig {
	var sig partSig
	for i, block := range blocks {
		s := sigOfBlock(typeOf, block)
		j := i
		for j > 0 && sig[j-1] < s {
			sig[j] = sig[j-1]
			j--
		}
		sig[j] = s
	}
	return sig
}

// oracleWalk is the search's former enumeration, kept as the oracle of
// partition.Distinct and the partition lists: walk every set partition
// in lexicographic RGS order and skip each whose typed signature an
// earlier one had. fn sees every survivor's blocks (valid only during
// the call) with its walk position and the walk's counters as the
// former loop held them on reaching it, and returns false to stop the
// walk there. The walk returns its counters where it stopped, which are
// the counters a search cut before scoring that survivor reported.
func oracleWalk(typeOf []uint8, fn func(blocks [][]int, rank, enumerated, deduped int) bool) (enumerated, deduped int) {
	n := len(typeOf)
	a := make([]int, n)   // the RGS; starts at the one-block partition
	top := make([]int, n) // top[i] = 1 + max(a[:i]), the bound on a[i]
	for i := 1; i < n; i++ {
		top[i] = 1
	}
	var flat [partition.MaxN]int
	blocks := make([][]int, 0, n)
	seen := map[partSig]bool{}
	for {
		enumerated++
		var sizes [partition.MaxN]int
		for _, b := range a {
			sizes[b]++
		}
		blocks = blocks[:0]
		for off := 0; off < n; off += sizes[len(blocks)-1] {
			blocks = append(blocks, flat[off:off])
		}
		for i, b := range a {
			blocks[b] = append(blocks[b], i)
		}
		ps := sigOfPartition(typeOf, blocks)
		if seen[ps] {
			deduped++
		} else {
			seen[ps] = true
			if !fn(blocks, enumerated-1, enumerated, deduped) {
				return enumerated, deduped
			}
		}
		// Advance to the next RGS: bump the rightmost position below its
		// bound and zero the rest.
		i := n - 1
		for ; i > 0 && a[i] == top[i]; i-- {
		}
		if i == 0 {
			return enumerated, deduped
		}
		a[i]++
		for j := i + 1; j < n; j++ {
			a[j], top[j] = 0, max(top[i], a[i]+1)
		}
	}
}

// compIDs is the list's composition id of each block, zero-padded to n.
func (pl *partitionList) compIDs(typeOf []uint8, blocks [][]int) []uint16 {
	ids := make([]uint16, pl.n)
	for b, block := range blocks {
		for _, vi := range block {
			ids[b] += uint16(pl.radix[typeOf[vi]])
		}
	}
	return ids
}

// matchOracle checks the partition list of pattern typeOf against the
// oracle walk: the same partitions in the same order, each with the
// oracle's blocks, composition ids and rank, and the same enumeration
// counters at every cut and at the end.
func matchOracle(t testing.TB, typeOf []uint8) {
	t.Helper()
	nTypes := int(slices.Max(typeOf)) + 1
	pl, err := newPartitionList(typeOf, nTypes)
	if err != nil {
		t.Fatal(err)
	}
	n := pl.n
	k := 0
	enumerated, deduped := oracleWalk(typeOf, func(blocks [][]int, rank, enumerated, deduped int) bool {
		if k >= pl.count {
			t.Fatalf("pattern %v: the oracle keeps more than the list's %d partitions", typeOf, pl.count)
		}
		if int(pl.rank[k]) != rank {
			t.Fatalf("pattern %v: partition %d has rank %d, oracle %d", typeOf, k, pl.rank[k], rank)
		}
		var ids [partition.MaxN]uint16
		at := k * n
		for b, block := range blocks {
			for _, vi := range block {
				if int(pl.vms[at]) != vi {
					t.Fatalf("pattern %v: partition %d lists VMs %v, oracle blocks %v", typeOf, k, pl.vms[k*n:(k+1)*n], blocks)
				}
				at++
				ids[b] += uint16(pl.radix[typeOf[vi]])
			}
		}
		if got := pl.comps[k*n : (k+1)*n]; !slices.Equal(got, ids[:n]) {
			t.Fatalf("pattern %v: partition %d has compositions %v, oracle blocks %v give %v", typeOf, k, got, blocks, ids[:n])
		}
		if e, d := pl.walked(k); e != enumerated || d != deduped {
			t.Fatalf("pattern %v: a cut at partition %d counts (%d, %d), oracle (%d, %d)",
				typeOf, k, e, d, enumerated, deduped)
		}
		k++
		return true
	})
	if k != pl.count {
		t.Fatalf("pattern %v: list holds %d partitions, oracle %d", typeOf, pl.count, k)
	}
	if e, d := pl.walked(pl.count); e != enumerated || d != deduped {
		t.Fatalf("pattern %v: the full search counts (%d, %d), oracle (%d, %d)", typeOf, e, d, enumerated, deduped)
	}
}

// blocksU8 narrows blocks to the list's VM index type.
func blocksU8(blocks [][]int) [][]uint8 {
	out := make([][]uint8, len(blocks))
	for b, block := range blocks {
		for _, vi := range block {
			out[b] = append(out[b], uint8(vi))
		}
	}
	return out
}

// typePatterns visits every VM type pattern of n VMs: type ids in
// first-occurrence order, which are exactly the RGSs of length n.
func typePatterns(n int, fn func(typeOf []uint8)) {
	if _, err := forEachPartition(n, func(blocks [][]int) bool {
		typeOf := make([]uint8, n)
		for b, block := range blocks {
			for _, vi := range block {
				typeOf[vi] = uint8(b)
			}
		}
		fn(typeOf)
		return true
	}); err != nil {
		panic(err)
	}
}

// TestDistinctPartitionsMatchOracle checks the partition lists against
// the former walk-and-skip enumeration on every type pattern of up to
// eight VMs (up to seven under the race detector, which slows the
// oracle walk tenfold).
func TestDistinctPartitionsMatchOracle(t *testing.T) {
	maxN := 8
	if raceEnabled {
		maxN = 7
	}
	for n := 1; n <= maxN; n++ {
		typePatterns(n, func(typeOf []uint8) { matchOracle(t, typeOf) })
	}
}

// FuzzDistinctPartitions checks the partition list of a random type
// pattern of up to twelve VMs against the oracle walk. Types are capped
// at four: the oracle's signature set then stays small even at
// n = 12, where the walk covers B(12) = 4,213,597 set partitions.
func FuzzDistinctPartitions(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1})
	f.Add([]byte{3, 1, 3, 3, 0, 2, 1})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > partition.MaxN {
			return
		}
		// Renumber the types in first-occurrence order, as vmTypes does.
		var id [4]int
		typeOf := make([]uint8, len(raw))
		next := 0
		for i, b := range raw {
			t := b % 4
			if id[t] == 0 {
				next++
				id[t] = next
			}
			typeOf[i] = uint8(id[t] - 1)
		}
		matchOracle(t, typeOf)
	})
}

// oracleEnumerate is enumerate over the oracle walk, scoring each
// survivor as it comes, as the search did before it read partition
// lists. Its SearchStats and frontier are what enumerate must
// reproduce.
func (sc *searchCtx) oracleEnumerate(pl *partitionList) (exhausted bool) {
	budget, cancel := sc.a.cfg.SearchBudget, sc.a.cfg.Cancel
	scored := 0
	sc.stats.Enumerated, sc.stats.Deduped = oracleWalk(sc.typeOf, func(blocks [][]int, _, _, _ int) bool {
		if budget > 0 && scored >= budget {
			exhausted = true
			return false
		}
		if cancel != nil && cancel() {
			exhausted = true
			return false
		}
		one := *pl
		one.count, one.vms, one.comps = 1, slices.Concat(blocksU8(blocks)...), pl.compIDs(sc.typeOf, blocks)
		sc.w.consider(&one, 0)
		scored++
		return true
	})
	return exhausted
}

// patternVMs builds a request of type pattern typeOf: VMs of one type
// share class, nominal time and QoS bound, and types differ in at least
// one of them.
func patternVMs(t testing.TB, typeOf []uint8) []VMRequest {
	aux := sharedDB(t).Aux()
	vms := make([]VMRequest, len(typeOf))
	for i, ty := range typeOf {
		class := workload.Classes[int(ty)%workload.NumClasses]
		nominal := aux.RefTime[class] * (1 + 0.1*units.Seconds(int(ty)/workload.NumClasses))
		vms[i] = VMRequest{ID: fmt.Sprint(i), Class: class, NominalTime: nominal, MaxTime: 2 * nominal}
	}
	return vms
}

// TestSearchMatchesOracle runs the search over partition lists and over
// the oracle walk side by side, unbudgeted, cut by a budget and cut by
// Cancel: both must report the same SearchStats and keep the same
// frontier with the same normalization maxima. Every type pattern of up
// to six VMs is covered, and random patterns of seven and eight.
func TestSearchMatchesOracle(t *testing.T) {
	db := sharedDB(t)
	r := rng.New(29)
	servers := mixFleet(33)
	check := func(typeOf []uint8) {
		vms := patternVMs(t, typeOf)
		pl, err := newPartitionList(typeOf, int(slices.Max(typeOf))+1)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := []Config{
			{DB: db},
			{DB: db, SearchBudget: 1},
			{DB: db, SearchBudget: max(1, pl.count/2)},
		}
		calls := 0
		cfgs = append(cfgs, Config{DB: db, Cancel: func() bool { calls++; return calls%4 == 0 }})
		for ci, cfg := range cfgs {
			a, err := NewAllocator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			calls = 0
			got, pl := loadCtx(t, a, GoalBalanced, servers, vms)
			gotCut := got.enumerate(pl)
			calls = 0
			want, _ := loadCtx(t, a, GoalBalanced, servers, vms)
			wantCut := want.oracleEnumerate(pl)
			label := fmt.Sprintf("pattern %v config %d", typeOf, ci)
			if gotCut != wantCut || got.stats != want.stats {
				t.Fatalf("%s: cut %v stats %+v, oracle cut %v stats %+v", label, gotCut, got.stats, wantCut, want.stats)
			}
			gw, ww := &got.w, &want.w
			if gw.maxT != ww.maxT || gw.maxE != ww.maxE || len(gw.frontier) != len(ww.frontier) {
				t.Fatalf("%s: frontier of %d, maxima (%v, %v); oracle %d, (%v, %v)",
					label, len(gw.frontier), gw.maxT, gw.maxE, len(ww.frontier), ww.maxT, ww.maxE)
			}
			for i := range gw.frontier {
				g, w := gw.frontier[i], ww.frontier[i]
				if g.time != w.time || g.energy != w.energy || !slices.Equal(g.vms, w.vms) || !slices.Equal(g.places, w.places) {
					t.Fatalf("%s: frontier candidate %d differs from the oracle's", label, i)
				}
			}
			a.release(got)
			a.release(want)
		}
	}
	for n := 1; n <= 6; n++ {
		typePatterns(n, check)
	}
	for n := 7; n <= 8; n++ {
		for range 12 {
			typeOf := make([]uint8, n)
			next := uint8(1)
			for i := 1; i < n; i++ {
				typeOf[i] = uint8(r.Intn(int(next) + 1))
				next = max(next, typeOf[i]+1)
			}
			check(typeOf)
		}
	}
}

// TestAllocateRejectsOversizedRequest pins the size guard in front of
// the partition-list memo: a request of more than partition.MaxN VMs is
// an error on both paths, even after lists of smaller patterns exist.
func TestAllocateRejectsOversizedRequest(t *testing.T) {
	a := mkAllocator(t)
	servers := mixFleet(11)
	if _, err := a.Allocate(GoalBalanced, servers, typedVMs(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	vms := typedVMs(t, partition.MaxN+1, 1)
	if _, err := a.Allocate(GoalBalanced, servers, vms); err == nil {
		t.Errorf("Allocate accepted %d VMs", len(vms))
	}
	if _, _, err := a.AllocateClasses(GoalBalanced, groupByAlloc(servers), vms, nil); err == nil {
		t.Errorf("AllocateClasses accepted %d VMs", len(vms))
	}
}
