package core

// The parallel Pareto-pruned partition search behind Allocator.Allocate.
//
// The engine keeps the paper's exhaustive semantics — every non-redundant
// set partition of the VM set is still evaluated — but restructures the
// enumeration around five exact reductions:
//
//  1. Equivalent partitions (same typed multiset of block compositions)
//     are deduplicated through a packed integer signature instead of the
//     legacy sorted-string form; no per-partition string is ever built.
//  2. Servers are grouped once per call into classes of identical
//     current allocation — the paper's "first server of the list" among
//     interchangeable servers. A block's candidates are the first
//     untouched server of each class plus every server the partition has
//     already touched, sorted by server index, less those a lower-index
//     touched server at the same grown allocation hides. Every option the
//     full-fleet scan prices survives, in the same order; the only extras
//     are later twins of an untouched server's option, which never win
//     the strict tie-break and leave the normalization maxima unchanged.
//     A block costs O(classes × touched) rather than O(servers ×
//     classes). A class keeps only its first len(vms)+1 members, since a
//     partition touches at most len(vms) servers, and servers too full to
//     host any VM are left out of every class.
//  3. Block pricing is memoized per (server class, block composition)
//     in a dense per-worker table: the same block on the same class is
//     priced once, not once per partition that contains it. A touched
//     server's grown allocation is priced directly. Database estimates
//     are memoized per allocation key in the allocator's
//     model.EstimateCache, which lives as long as the allocator.
//  4. Candidates are pruned online to a Pareto frontier: the α-weighted
//     score after max-normalization is monotone increasing in both
//     estimated time and energy, so a candidate weakly dominated by an
//     earlier one can never win under any goal — dropping it cannot
//     change the outcome (the earlier candidate also wins the
//     first-of-the-list tie-break). Later dominators never evict earlier
//     candidates, because within the scoreEpsilon tie band the earlier
//     index must still win.
//  5. For larger VM sets the deduplicated partition stream fans out to a
//     bounded worker pool. Each job carries its enumeration index, each
//     worker reduces its subsequence in arrival order, and the final
//     merge re-sorts by index, so the deterministic tie-break of the
//     serial scan survives the parallel reduce bit-for-bit.
//
// Normalization maxima are tracked over every feasible candidate — not
// just the retained frontier — so pickBest sees exactly the constants
// the unpruned enumeration would have used.

import (
	"slices"
	"sort"
	"sync"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/partition"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// parallelWorkThreshold is the VM-set size from which Allocate fans the
// partition stream out to the worker pool. Below it there are at most
// B(5) = 52 partitions and the pool's startup cost exceeds the work; it
// also keeps the per-job allocations of the nested searches issued by a
// concurrent datacenter simulation (jobs of 1–4 VMs) on the serial fast
// path.
const parallelWorkThreshold = 6

// blockSig is the canonical typed-multiset signature of one block: VM
// counts packed 4 bits per VM type. partition.MaxN = 12 bounds both the
// number of distinct types and any count at 12, so 48 bits suffice and
// two blocks have equal signatures iff their typed multisets are equal.
type blockSig uint64

// partSig canonicalizes a whole partition as its sorted multiset of
// block signatures, zero-padded (a block is never empty, so a zero entry
// is unambiguous padding). Two partitions have equal signatures iff
// their multisets of block compositions are equal — the typed
// generalization of the paper's interchangeable-VM reduction [21].
type partSig [partition.MaxN]blockSig

// typeMask is a bitset over VM types (≤ partition.MaxN of them).
type typeMask uint16

// vmTypes assigns each VM a small type id such that two VMs share an id
// iff they are interchangeable: same class, nominal time and QoS bound.
// types[t] is a representative request of type t.
func vmTypes(vms []VMRequest) (typeOf []uint8, types []VMRequest) {
	typeOf = make([]uint8, len(vms))
	types = make([]VMRequest, 0, len(vms))
assign:
	for i, vm := range vms {
		for t, rep := range types {
			if rep.Class == vm.Class && rep.NominalTime == vm.NominalTime && rep.MaxTime == vm.MaxTime {
				typeOf[i] = uint8(t)
				continue assign
			}
		}
		typeOf[i] = uint8(len(types))
		types = append(types, vm)
	}
	return typeOf, types
}

// sigOfBlock folds a block's members into its packed type-count vector.
func sigOfBlock(typeOf []uint8, block []int) blockSig {
	var sig blockSig
	for _, vi := range block {
		sig += 1 << (4 * blockSig(typeOf[vi]))
	}
	return sig
}

// sigOfPartition canonicalizes a partition: block signatures, insertion-
// sorted descending into a fixed array. No heap allocation.
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

// blockPrice is the pricing of one block on one server state: the
// placement economics minus the concrete VM identities (every block with
// the same signature shares them).
type blockPrice struct {
	after  model.Key
	time   units.Seconds
	energy units.Joules
	ok     bool
}

// candidate is one fully placed partition that survived Pareto pruning.
// Placements are stored as indices (blocks into the request's VM set,
// places into the server list) and materialized only for the winner.
type candidate struct {
	// idx is the partition's position in the deduplicated enumeration —
	// the identity the first-of-the-list tie-break ranks on.
	idx    int
	time   units.Seconds
	energy units.Joules
	blocks [][]int
	places []blockPlace
}

// blockPlace records where one block of a candidate went and at what
// estimated cost.
type blockPlace struct {
	serverID int
	after    model.Key
	time     units.Seconds
	energy   units.Joules
}

// serverClass is one group of interchangeable servers: every member has
// the same current allocation. members holds the class's lowest server
// indices in ascending order, at most len(vms)+1 of them.
type serverClass struct {
	alloc   model.Key
	members []int
}

// packKey packs an allocation into one integer, 21 bits per class. It
// is lossless for the servers groupServers keeps: their totals are below
// MaxVMsPerServer, which NewAllocator bounds by maxPackedCount.
func packKey(k model.Key) uint64 {
	return uint64(k.NCPU) | uint64(k.NMEM)<<21 | uint64(k.NIO)<<42
}

// maxPackedCount bounds MaxVMsPerServer so that packKey stays lossless.
const maxPackedCount = 1 << 21

// searchCtx is the shared state of one Allocate call: the VM type
// table and the server classes, read-only once the search starts.
type searchCtx struct {
	a       *Allocator
	goal    Goal
	servers []ServerState
	vms     []VMRequest
	typeOf  []uint8
	types   []VMRequest
	typeKey []model.Key
	classes []serverClass

	est *model.EstimateCache

	// Telemetry handles; all nil (no-op) when the allocator has no
	// registry. Counters are atomic, so workers update them directly.
	enumerated *obs.Counter // partitions produced by the generator
	deduped    *obs.Counter // partitions skipped by the signature dedup
	feasible   *obs.Counter // candidates every block of which placed
	infeasible *obs.Counter // candidates with an unplaceable block
	pruned     *obs.Counter // candidates dropped by Pareto domination
	exhausted  *obs.Counter // searches abandoned on budget exhaustion
	degraded   *obs.Counter // allocations served by the first-fit fallback
	workerLoad *obs.Histogram

	// stats is the exact per-call tally behind AllocateExplained.
	// Enumerated/Deduped are bumped by the sequential producer; the
	// per-worker tallies are summed in after the pool drains, so no
	// atomic traffic joins the hot path.
	stats SearchStats
}

func newSearchCtx(a *Allocator, goal Goal, servers []ServerState, vms []VMRequest) *searchCtx {
	typeOf, types := vmTypes(vms)
	typeKey := make([]model.Key, len(types))
	for t, rep := range types {
		typeKey[t] = model.KeyFor(rep.Class, 1)
	}
	sc := &searchCtx{
		a:       a,
		goal:    goal,
		servers: servers,
		vms:     vms,
		typeOf:  typeOf,
		types:   types,
		typeKey: typeKey,
		est:     a.est,
	}
	sc.groupServers()
	if reg := a.cfg.Obs; reg != nil {
		sc.enumerated = reg.Counter("search_partitions_enumerated")
		sc.deduped = reg.Counter("search_partitions_deduped")
		sc.feasible = reg.Counter("search_candidates_feasible")
		sc.infeasible = reg.Counter("search_candidates_infeasible")
		sc.pruned = reg.Counter("search_pareto_pruned")
		sc.exhausted = reg.Counter("search_budget_exhausted")
		sc.degraded = reg.Counter("search_degraded_firstfit")
		// Jobs per worker: a flat pool shows every worker near
		// jobs/workers; a long tail of idle workers shows the serial
		// producer is the bottleneck.
		sc.workerLoad = reg.Histogram("search_jobs_per_worker",
			1, 4, 16, 64, 256, 1024, 4096, 16384)
	}
	return sc
}

// groupServers sorts the servers into classes of identical allocation,
// in order of each class's first member. A server whose allocation
// already holds MaxVMsPerServer VMs is skipped: every block overflows
// it, so the full scan never takes it as an option either.
func (sc *searchCtx) groupServers() {
	const chunkClasses = 16 // classes whose member lists share one allocation
	maxMembers := len(sc.vms) + 1
	byKey := make(map[uint64]int, chunkClasses)
	// recent is a direct-mapped cache in front of byKey, indexed by a
	// multiplicative hash of the packed key: a fleet holds a few dozen
	// classes, so nearly every server resolves without a map lookup.
	// class is stored plus one, so a zero slot is empty.
	var recent [256]struct {
		key   uint64
		class int
	}
	sc.classes = make([]serverClass, 0, chunkClasses)
	var chunk []int
	for si := range sc.servers {
		alloc := sc.servers[si].Alloc
		if alloc.Total() >= sc.a.cfg.MaxVMsPerServer {
			continue
		}
		k := packKey(alloc)
		slot := &recent[(k*0x9E3779B97F4A7C15)>>56]
		ci := slot.class - 1
		if ci < 0 || slot.key != k {
			var ok bool
			if ci, ok = byKey[k]; !ok {
				ci = len(sc.classes)
				byKey[k] = ci
				sc.classes = append(sc.classes, serverClass{alloc: alloc})
			}
			slot.key, slot.class = k, ci+1
		}
		c := &sc.classes[ci]
		if c.members == nil {
			if cap(chunk)-len(chunk) < maxMembers {
				chunk = make([]int, 0, chunkClasses*maxMembers)
			}
			n := len(chunk)
			chunk = chunk[:n+maxMembers]
			c.members = chunk[n : n : n+maxMembers]
		}
		if len(c.members) < maxMembers {
			c.members = append(c.members, si)
		}
	}
}

// priceBlock prices adding a block of composition sig (total key
// blockKey) to a server currently at base. The semantics are those of
// Allocator.evalBlock restricted to the block's own VMs; QoS of VMs
// already tentatively placed on the server is rechecked per call by
// placedOK, because it depends on the partition prefix, not on
// (base, sig).
func (sc *searchCtx) priceBlock(base model.Key, sig blockSig, blockKey model.Key) blockPrice {
	cfg := &sc.a.cfg
	after := base.Add(blockKey)
	if after.Total() > cfg.MaxVMsPerServer {
		return blockPrice{}
	}
	for _, c := range workload.Classes {
		if after.Count(c) > cfg.PerClassBound[c] {
			return blockPrice{}
		}
	}
	recAfter, err := sc.est.Estimate(after)
	if err != nil {
		return blockPrice{}
	}
	aux := cfg.DB.Aux()
	var blockTime units.Seconds
	for t := range sc.types {
		if sig>>(4*blockSig(t))&0xF == 0 {
			continue
		}
		rep := sc.types[t]
		ref := aux.RefTime[rep.Class]
		if ref <= 0 {
			return blockPrice{}
		}
		est := recAfter.ClassTime(rep.Class) * rep.NominalTime / ref
		if !cfg.RelaxQoS && rep.MaxTime > 0 && est > rep.MaxTime {
			return blockPrice{}
		}
		if est > blockTime {
			blockTime = est
		}
	}
	// Marginal energy: see Allocator.evalBlock — whole-outcome energy
	// difference, clamped at zero.
	var beforeEnergy units.Joules
	if !base.IsZero() {
		recBefore, err := sc.est.Estimate(base)
		if err != nil {
			return blockPrice{}
		}
		beforeEnergy = recBefore.Energy
	}
	deltaE := recAfter.Energy - beforeEnergy
	if deltaE < 0 {
		deltaE = 0
	}
	return blockPrice{after: after, time: blockTime, energy: deltaE, ok: true}
}

// placedOK rechecks the QoS bounds of VM types already tentatively
// placed on a server whose allocation would grow to after. Counts are
// irrelevant — every VM of a type gets the same estimate — so a type
// bitmask suffices.
func (sc *searchCtx) placedOK(after model.Key, mask typeMask) bool {
	if mask == 0 || sc.a.cfg.RelaxQoS {
		return true
	}
	rec, err := sc.est.Estimate(after)
	if err != nil {
		return false
	}
	aux := sc.a.cfg.DB.Aux()
	for t := 0; mask != 0; t++ {
		if mask&1 != 0 {
			rep := sc.types[t]
			if rep.MaxTime > 0 {
				est := rec.ClassTime(rep.Class) * rep.NominalTime / aux.RefTime[rep.Class]
				if est > rep.MaxTime {
					return false
				}
			}
		}
		mask >>= 1
	}
	return true
}

// searchWorker evaluates a subsequence of the deduplicated partition
// stream, reducing it to a Pareto frontier plus the normalization
// maxima over every feasible candidate it saw. All scratch buffers are
// reused across partitions; a worker is single-goroutine state.
type searchWorker struct {
	sc *searchCtx

	// Per-partition scratch. used[c] counts the members of class c the
	// partition has touched; they are always a prefix of the class's
	// members, because only a class's first untouched server is ever a
	// candidate. Reset via the touched list.
	used    []int
	touched []touchedServer

	// Per-block scratch.
	cands   []blockCand
	options []blockOption
	places  []blockPlace

	// Block-pricing memo for untouched servers: row sigRow[sig] of memo
	// holds one slot per server class. Each worker keeps its own, so
	// the pool prices without locks.
	sigRow map[blockSig]int
	memo   []memoSlot

	// Reduction state.
	frontier []candidate
	maxT     units.Seconds
	maxE     units.Joules
	// jobs counts partitions this worker evaluated (pool-utilization
	// telemetry; a plain int — each worker is single-goroutine state).
	jobs int
	// Per-worker exact tallies folded into searchCtx.stats after the
	// pool drains (plain ints for the same single-goroutine reason).
	nFeasible   int
	nInfeasible int
	nPruned     int
}

// touchedServer is a server the current partition has placed blocks on:
// its class, its allocation grown by those blocks, and the VM types
// they hold.
type touchedServer struct {
	serverIdx int
	class     int
	base      model.Key
	mask      typeMask
}

// blockCand is one server a block may go to: the first untouched member
// of a class (touched < 0) or the touched server w.touched[touched].
type blockCand struct {
	serverIdx int
	class     int
	touched   int
}

type blockOption struct {
	cand blockCand
	val  blockPrice
}

// memoSlot is one memoized class pricing; done marks it filled.
type memoSlot struct {
	val  blockPrice
	done bool
}

func (sc *searchCtx) newWorker() *searchWorker {
	k := len(sc.classes) + len(sc.vms)
	return &searchWorker{
		sc:      sc,
		used:    make([]int, len(sc.classes)),
		touched: make([]touchedServer, 0, len(sc.vms)),
		cands:   make([]blockCand, 0, k),
		options: make([]blockOption, 0, k),
		places:  make([]blockPlace, 0, len(sc.vms)),
		sigRow:  make(map[blockSig]int),
		// One row per block size: every composition a job of
		// interchangeable VMs can form.
		memo: make([]memoSlot, 0, len(sc.classes)*len(sc.vms)),
	}
}

// memoRow returns the memo row of block composition sig, adding an
// empty one on first sight.
func (w *searchWorker) memoRow(sig blockSig) []memoSlot {
	nc := len(w.sc.classes)
	if nc == 0 {
		return nil
	}
	r, ok := w.sigRow[sig]
	if !ok {
		r = len(w.memo) / nc
		w.sigRow[sig] = r
		w.memo = slices.Grow(w.memo, nc)[:len(w.memo)+nc]
		clear(w.memo[r*nc:])
	}
	return w.memo[r*nc : (r+1)*nc]
}

// consider evaluates one partition and folds it into the worker's
// frontier. blocks must be owned by the caller if owned is true;
// otherwise they are copied before retention.
func (w *searchWorker) consider(idx int, blocks [][]int, owned bool) {
	w.jobs++
	ok := w.evalPartition(blocks)
	if !ok {
		w.nInfeasible++
		w.sc.infeasible.Inc()
		return
	}
	w.nFeasible++
	w.sc.feasible.Inc()
	var candT units.Seconds
	var candE units.Joules
	for _, p := range w.places {
		candE += p.energy
		if p.time > candT {
			candT = p.time
		}
	}
	if candT > w.maxT {
		w.maxT = candT
	}
	if candE > w.maxE {
		w.maxE = candE
	}
	// Pareto pruning: a candidate weakly dominated by an earlier kept
	// one can never win any goal (the earlier also takes the tie).
	// Within a worker, arrival order is ascending enumeration order, so
	// every kept candidate is earlier than the new one.
	for i := range w.frontier {
		f := &w.frontier[i]
		if f.time <= candT && f.energy <= candE {
			w.nPruned++
			w.sc.pruned.Inc()
			return
		}
	}
	if !owned {
		blocks = copyBlocks(blocks)
	}
	w.frontier = append(w.frontier, candidate{
		idx:    idx,
		time:   candT,
		energy: candE,
		blocks: blocks,
		places: append([]blockPlace(nil), w.places...),
	})
}

// copyBlocks deep-copies a partition with a single backing array (a
// partition of n elements has exactly n entries in total).
func copyBlocks(blocks [][]int) [][]int {
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	flat := make([]int, 0, total)
	out := make([][]int, len(blocks))
	for i, b := range blocks {
		start := len(flat)
		flat = append(flat, b...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// evalPartition greedily places every block of the partition on its
// best-scoring feasible server and prices the result into w.places
// (valid until the next call). ok is false when some block has no
// feasible server. The block-level choice mirrors the reference
// implementation exactly: servers with identical effective allocation
// collapse to the first of each group, options are max-normalized
// within the block, and the α-scored minimum wins with the epsilon
// tie-break to the lower server index.
func (w *searchWorker) evalPartition(blocks [][]int) (ok bool) {
	sc := w.sc
	alpha := sc.goal.Alpha
	for _, t := range w.touched {
		w.used[t.class] = 0
	}
	w.touched = w.touched[:0]
	w.places = w.places[:0]

	for _, block := range blocks {
		var sig blockSig
		var blockKey model.Key
		var bmask typeMask
		for _, vi := range block {
			t := sc.typeOf[vi]
			sig += 1 << (4 * blockSig(t))
			blockKey = blockKey.Add(sc.typeKey[t])
			bmask |= 1 << t
		}

		w.collectCands()
		w.options = w.options[:0]
		row := w.memoRow(sig)
		for _, c := range w.cands {
			base, mask := sc.classes[c.class].alloc, typeMask(0)
			if c.touched >= 0 {
				base, mask = w.touched[c.touched].base, w.touched[c.touched].mask
			}
			if w.hidden(c.serverIdx, base) {
				continue
			}
			var v blockPrice
			if c.touched >= 0 {
				v = sc.priceBlock(base, sig, blockKey)
			} else if m := &row[c.class]; m.done {
				v = m.val
			} else {
				v = sc.priceBlock(base, sig, blockKey)
				*m = memoSlot{val: v, done: true}
			}
			if !v.ok || !sc.placedOK(v.after, mask) {
				continue
			}
			w.options = append(w.options, blockOption{cand: c, val: v})
		}
		if len(w.options) == 0 {
			return false
		}

		var maxT units.Seconds
		var maxE units.Joules
		for _, o := range w.options {
			if o.val.time > maxT {
				maxT = o.val.time
			}
			if o.val.energy > maxE {
				maxE = o.val.energy
			}
		}
		bestI := -1
		bestScore := 0.0
		for i, o := range w.options {
			tn, en := 0.0, 0.0
			if maxT > 0 {
				tn = float64(o.val.time) / float64(maxT)
			}
			if maxE > 0 {
				en = float64(o.val.energy) / float64(maxE)
			}
			// The block-level choice honors the same α as the
			// allocation-level ranking.
			score := alpha*en + (1-alpha)*tn
			if bestI < 0 || score < bestScore-scoreEpsilon {
				bestScore, bestI = score, i
			}
		}
		chosen := w.options[bestI]
		if c := chosen.cand; c.touched >= 0 {
			t := &w.touched[c.touched]
			t.base = chosen.val.after
			t.mask |= bmask
		} else {
			w.used[c.class]++
			w.touched = append(w.touched, touchedServer{
				serverIdx: c.serverIdx,
				class:     c.class,
				base:      chosen.val.after,
				mask:      bmask,
			})
		}
		w.places = append(w.places, blockPlace{
			serverID: sc.servers[chosen.cand.serverIdx].ID,
			after:    chosen.val.after,
			time:     chosen.val.time,
			energy:   chosen.val.energy,
		})
	}
	return true
}

// collectCands fills w.cands with the block's candidate servers in
// ascending server index: the first untouched member of every class
// that has one, and every touched server.
func (w *searchWorker) collectCands() {
	w.cands = w.cands[:0]
	for ci := range w.sc.classes {
		members := w.sc.classes[ci].members
		if u := w.used[ci]; u < len(members) {
			w.cands = append(w.cands, blockCand{serverIdx: members[u], class: ci, touched: -1})
		}
	}
	for ti, t := range w.touched {
		w.cands = append(w.cands, blockCand{serverIdx: t.serverIdx, class: t.class, touched: ti})
	}
	// Insertion sort: classes are already in first-member order, so only
	// the touched servers and the classes they advanced are out of place.
	for i := 1; i < len(w.cands); i++ {
		c := w.cands[i]
		j := i
		for j > 0 && w.cands[j-1].serverIdx > c.serverIdx {
			w.cands[j] = w.cands[j-1]
			j--
		}
		w.cands[j] = c
	}
}

// hidden reports whether a touched server with a lower index than si
// sits at allocation base. The full scan prices only the first server
// at each allocation, and a touched one hides the rest: the QoS of the
// VMs placed on it may reject a block an untouched twin would accept.
// An untouched server hides nothing observable: it rejects a block only
// if the pricing does, so a later server at its allocation prices to an
// identical option, which never wins the strict tie-break.
func (w *searchWorker) hidden(si int, base model.Key) bool {
	for _, t := range w.touched {
		if t.serverIdx < si && t.base == base {
			return true
		}
	}
	return false
}

// search enumerates the deduplicated partitions of the VM set and
// reduces them to a Pareto frontier sorted by enumeration index, plus
// the normalization maxima over all feasible candidates. exhausted
// reports that Config.SearchBudget ran out before the enumeration
// completed — the partial frontier must then be discarded (a truncated
// search breaks the normalization constants and the first-of-the-list
// tie-break) and the caller degrades to the first-fit fallback.
//
// The budget counts deduplicated partitions admitted to scoring, and it
// is spent by the sequential producer in both the serial and the
// parallel engine, so exhaustion strikes at exactly the same partition
// at every worker count: budgeted runs replay bit-for-bit.
func (sc *searchCtx) search(workers int) (cands []candidate, maxT units.Seconds, maxE units.Joules, exhausted bool, err error) {
	n := len(sc.vms)
	if workers <= 1 || n < parallelWorkThreshold {
		return sc.searchSerial(n)
	}
	return sc.searchParallel(n, workers)
}

func (sc *searchCtx) searchSerial(n int) ([]candidate, units.Seconds, units.Joules, bool, error) {
	w := sc.newWorker()
	// A 1-VM job has one partition; do not size its dedup set for 64.
	seen := make(map[partSig]struct{}, min(partition.Bell(n), 64))
	budget := sc.a.cfg.SearchBudget
	cancel := sc.a.cfg.Cancel
	exhausted := false
	idx := 0
	_, err := partition.ForEachIndexed(n, func(_ int, blocks [][]int) bool {
		sc.stats.Enumerated++
		sc.enumerated.Inc()
		ps := sigOfPartition(sc.typeOf, blocks)
		if _, dup := seen[ps]; dup {
			sc.stats.Deduped++
			sc.deduped.Inc()
			return true
		}
		if budget > 0 && idx >= budget {
			exhausted = true
			return false
		}
		if cancel != nil && cancel() {
			sc.stats.Canceled = true
			exhausted = true
			return false
		}
		seen[ps] = struct{}{}
		w.consider(idx, blocks, false)
		idx++
		return true
	})
	if err != nil {
		return nil, 0, 0, false, err
	}
	sc.foldWorkerStats(w)
	sc.workerLoad.Observe(float64(w.jobs))
	return w.frontier, w.maxT, w.maxE, exhausted, nil
}

// foldWorkerStats sums one drained worker's tallies into the per-call
// stats; callers must only invoke it after the worker has stopped.
func (sc *searchCtx) foldWorkerStats(w *searchWorker) {
	sc.stats.Feasible += w.nFeasible
	sc.stats.Infeasible += w.nInfeasible
	sc.stats.Pruned += w.nPruned
}

// searchJob is one deduplicated partition shipped to a worker, tagged
// with its enumeration index so the reduce can restore serial order.
type searchJob struct {
	idx    int
	blocks [][]int
}

func (sc *searchCtx) searchParallel(n, workers int) ([]candidate, units.Seconds, units.Joules, bool, error) {
	jobs := make(chan searchJob, 2*workers)
	ws := make([]*searchWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = sc.newWorker()
		wg.Add(1)
		go func(w *searchWorker) {
			defer wg.Done()
			for j := range jobs {
				w.consider(j.idx, j.blocks, true)
			}
		}(ws[i])
	}

	// The producer enumerates and deduplicates sequentially — the seen
	// map stays single-goroutine, so "first occurrence is evaluated" is
	// deterministic — while workers price partitions concurrently. The
	// budget is spent here too, never by the racing consumers, so the
	// cut point is independent of worker scheduling.
	seen := make(map[partSig]struct{}, 256)
	budget := sc.a.cfg.SearchBudget
	cancel := sc.a.cfg.Cancel
	exhausted := false
	idx := 0
	_, err := partition.ForEachIndexed(n, func(_ int, blocks [][]int) bool {
		sc.stats.Enumerated++
		sc.enumerated.Inc()
		ps := sigOfPartition(sc.typeOf, blocks)
		if _, dup := seen[ps]; dup {
			sc.stats.Deduped++
			sc.deduped.Inc()
			return true
		}
		if budget > 0 && idx >= budget {
			exhausted = true
			return false
		}
		// The cancel poll lives on the producer like the budget: the cut
		// point never depends on worker scheduling, only on when the hook
		// fired relative to the sequential enumeration.
		if cancel != nil && cancel() {
			sc.stats.Canceled = true
			exhausted = true
			return false
		}
		seen[ps] = struct{}{}
		jobs <- searchJob{idx: idx, blocks: copyBlocks(blocks)}
		idx++
		return true
	})
	close(jobs)
	wg.Wait()
	if err != nil {
		return nil, 0, 0, false, err
	}
	for _, w := range ws {
		sc.foldWorkerStats(w)
		sc.workerLoad.Observe(float64(w.jobs))
	}

	var frontier []candidate
	var maxT units.Seconds
	var maxE units.Joules
	for _, w := range ws {
		frontier = append(frontier, w.frontier...)
		if w.maxT > maxT {
			maxT = w.maxT
		}
		if w.maxE > maxE {
			maxE = w.maxE
		}
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i].idx < frontier[j].idx })
	// Re-prune across worker boundaries: a candidate kept by one worker
	// may be dominated by an earlier candidate another worker held.
	kept := frontier[:0]
	for _, c := range frontier {
		dominated := false
		for i := range kept {
			if kept[i].time <= c.time && kept[i].energy <= c.energy {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, c)
		} else {
			sc.stats.Pruned++
			sc.pruned.Inc()
		}
	}
	return kept, maxT, maxE, exhausted, nil
}

// materialize expands the winning candidate into the public Allocation
// form, reconstructing per-block VM lists from the stored indices.
func (sc *searchCtx) materialize(c candidate) Allocation {
	pls := make([]Placement, len(c.places))
	for i, p := range c.places {
		block := c.blocks[i]
		vms := make([]VMRequest, len(block))
		for j, vi := range block {
			vms[j] = sc.vms[vi]
		}
		pls[i] = Placement{
			ServerID:  p.serverID,
			VMs:       vms,
			NewAlloc:  p.after,
			EstTime:   p.time,
			EstEnergy: p.energy,
		}
	}
	return Allocation{Placements: pls, EstTime: c.time, EstEnergy: c.energy}
}
