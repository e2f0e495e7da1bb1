package core

// The Pareto-pruned partition search behind Allocator.Allocate.
//
// The engine keeps the paper's exhaustive semantics — every non-redundant
// set partition of the VM set is still evaluated — but restructures the
// enumeration around four exact reductions:
//
//  1. Only distinct partitions are generated: two partitions with the
//     same typed multiset of block compositions — they differ only by
//     swapping interchangeable VMs — price identically, so the search
//     scores each once, as its first restricted growth string, in the
//     order a walk over all B(n) set partitions first meets it
//     (partition.Distinct). Each VM type pattern's list is generated
//     once per search context and kept (partitions.go); the enumeration
//     counts of that walk are read off the list's ranks, not counted.
//  2. Servers are grouped into classes of identical current
//     allocation — the paper's "first server of the list" among
//     interchangeable servers. The caller's fleet index keeps the
//     classes current as placements and faults change the fleet
//     (AllocateClasses, the path the simulator and the service take);
//     only a plain server list (Allocate) is grouped per call, in one
//     O(servers) pass. A block's candidates are the first
//     untouched server of each class plus every server the partition has
//     already touched, in ascending server index, less those a
//     lower-index touched server at the same grown allocation hides.
//     Classes arrive in order of their first member, so the candidates
//     are merged, not sorted: the block walks the options of the
//     classes nobody has touched in arrival order (reduction 3's rows)
//     and threads in a short list, kept sorted as the partition grows,
//     of the touched servers and the next member of each class the
//     partition advanced — at most 2 × touched entries. Every option the
//     full-fleet scan prices survives, in the same order; the only
//     extras are later twins of an untouched server's option, which
//     never win the strict tie-break and leave the normalization maxima
//     unchanged. A block costs O(admissible classes + touched²) rather
//     than O(servers × classes). A class keeps only its
//     first len(vms)+1 members, since a partition touches at most
//     len(vms) servers, and servers too full to host any VM are left out
//     of every class.
//  3. Options come in per-composition rows: the first time a call
//     meets a block composition, it prices the block once on every
//     class into a row of the admissible options in class order, with
//     their maxima, plus a (composition × class) position table. A
//     partition's first block has exactly the row as its options, so
//     its winner is scored once per composition and call; every later
//     block walks only the row, skipping touched and hidden classes,
//     and an advanced class's next member reads its class's entry
//     through the position table. A touched server's grown allocation
//     is priced directly. Database estimates are memoized per
//     allocation key in the allocator's model.EstimateCache, which
//     lives as long as the allocator, and pricing reads them in place.
//  4. Candidates are pruned online to a Pareto frontier: the α-weighted
//     score after max-normalization is monotone increasing in both
//     estimated time and energy, so a candidate weakly dominated by an
//     earlier one can never win under any goal — dropping it cannot
//     change the outcome (the earlier candidate also wins the
//     first-of-the-list tie-break). Later dominators never evict earlier
//     candidates, because within the scoreEpsilon tie band the earlier
//     index must still win.
//
// Normalization maxima are tracked over every feasible candidate — not
// just the retained frontier — so pickBest sees exactly the constants
// the unpruned enumeration would have used.
//
// Every per-call buffer — the context with its partition lists, the
// worker and its option rows and the frontier arenas — comes from a
// pool on the Allocator, so a steady stream of class-path decisions
// makes no heap allocation.

import (
	"fmt"
	"math/bits"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/partition"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// typeMask is a bitset over VM types (≤ partition.MaxN of them).
type typeMask uint16

// vmTypes assigns each VM a small type id such that two VMs share an id
// iff they are interchangeable: same class, nominal time and QoS bound.
// types[t] is a representative request of type t. The results reuse
// the storage of typeOf and types.
func vmTypes(vms []VMRequest, typeOf []uint8, types []VMRequest) ([]uint8, []VMRequest) {
	typeOf = append(typeOf[:0], make([]uint8, len(vms))...)
	types = types[:0]
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

// blockPrice is the pricing of one block on one server state: the
// placement economics minus the concrete VM identities (every block with
// the same signature shares them) and minus the grown allocation, which
// the caller has already summed.
type blockPrice struct {
	time   units.Seconds
	energy units.Joules
	ok     bool
}

// candidate is one fully placed partition that survived Pareto pruning.
// Placements are stored as indices (VMs into the request, servers as
// class members) and materialized only for the winner. Both slices live
// in the worker's arenas.
type candidate struct {
	time   units.Seconds
	energy units.Joules
	// vms lists the request's VM indices block by block: block i holds
	// the next places[i].n entries.
	vms    []int
	places []blockPlace
}

// blockPlace records where one block of a candidate went and at what
// estimated cost. server is a class member: a position in the server
// list on the linear path, a server ID on the class path.
type blockPlace struct {
	server int
	n      int
	after  model.Key
	time   units.Seconds
	energy units.Joules
}

// ServerClass is one group of interchangeable servers: every member
// sits at allocation Alloc. Members lists server IDs in ascending
// order; AllocateClasses needs only the lowest len(vms)+1 of them,
// since a partition touches at most len(vms) servers, and takes the
// classes in ascending order of their lowest member.
type ServerClass struct {
	Alloc   model.Key
	Members []int
}

// packKey packs an allocation into one integer, 21 bits per class. It
// is lossless for the servers groupServers keeps: their totals are below
// MaxVMsPerServer, which NewAllocator bounds by maxPackedCount.
func packKey(k model.Key) uint64 {
	return uint64(k.NCPU) | uint64(k.NMEM)<<21 | uint64(k.NIO)<<42
}

// maxPackedCount bounds MaxVMsPerServer so that packKey stays lossless.
const maxPackedCount = 1 << 21

// searchTelemetry holds an allocator's instrument handles, resolved
// once in NewAllocator; all nil (no-op) without a registry. Counters
// are atomic, so concurrent searches update them directly.
type searchTelemetry struct {
	enumerated *obs.Counter // set partitions the search covered, repeats included
	deduped    *obs.Counter // of those, repeats of an earlier typed partition
	feasible   *obs.Counter // candidates every block of which placed
	infeasible *obs.Counter // candidates with an unplaceable block
	pruned     *obs.Counter // candidates dropped by Pareto domination
	exhausted  *obs.Counter // searches abandoned on budget exhaustion
	degraded   *obs.Counter // allocations served by the first-fit fallback
}

func newSearchTelemetry(reg *obs.Registry) searchTelemetry {
	if reg == nil {
		return searchTelemetry{}
	}
	return searchTelemetry{
		enumerated: reg.Counter("search_partitions_enumerated"),
		deduped:    reg.Counter("search_partitions_deduped"),
		feasible:   reg.Counter("search_candidates_feasible"),
		infeasible: reg.Counter("search_candidates_infeasible"),
		pruned:     reg.Counter("search_pareto_pruned"),
		exhausted:  reg.Counter("search_budget_exhausted"),
		degraded:   reg.Counter("search_degraded_firstfit"),
	}
}

// searchCtx is the state of one Allocate call: the VM type table and
// the server classes, read-only once the search starts, plus every
// scratch buffer the call needs. Contexts are recycled through the
// allocator's pool, so a steady stream of calls allocates nothing.
type searchCtx struct {
	a    *Allocator
	tel  *searchTelemetry
	goal Goal
	vms  []VMRequest
	// servers is the linear path's server list; class members are
	// positions in it. Nil on the class path, where members are IDs.
	servers []ServerState
	typeOf  []uint8
	types   []VMRequest
	classes []ServerClass

	// stats is the exact per-call tally behind AllocateExplained: plain
	// integers, so no atomic traffic joins the hot path.
	stats SearchStats

	// Grouping scratch (linear path).
	byKey   map[uint64]int
	members []int

	// lists memoizes the partition list of each VM type pattern the
	// context has searched; listed counts their partitions.
	lists  map[uint64]*partitionList
	listed int

	// w evaluates the partitions; the first-fit fallback uses it too.
	w searchWorker
}

// acquire takes a context from the pool and loads the request into it.
func (a *Allocator) acquire(goal Goal, vms []VMRequest) *searchCtx {
	sc := a.scratch.Get().(*searchCtx)
	sc.a, sc.tel, sc.goal, sc.vms = a, &a.tel, goal, vms
	sc.typeOf, sc.types = vmTypes(vms, sc.typeOf, sc.types)
	sc.stats = SearchStats{}
	return sc
}

// release returns a context to the pool, dropping its references to
// the caller's data.
func (a *Allocator) release(sc *searchCtx) {
	sc.vms, sc.servers = nil, nil
	clear(sc.classes)
	sc.classes = sc.classes[:0]
	a.scratch.Put(sc)
}

// groupServers sorts the servers into classes of identical allocation,
// in order of each class's first member, with members as positions in
// servers. A server whose allocation already holds MaxVMsPerServer VMs
// is skipped: every block overflows it, so the full scan never takes it
// as an option either. An invalid allocation is an error.
func (sc *searchCtx) groupServers(servers []ServerState) error {
	maxMembers := len(sc.vms) + 1
	if sc.byKey == nil {
		sc.byKey = make(map[uint64]int)
	}
	clear(sc.byKey)
	// recent is a direct-mapped cache in front of byKey, indexed by a
	// multiplicative hash of the packed key: a fleet holds a few dozen
	// classes, so nearly every server resolves without a map lookup.
	// class is stored plus one, so a zero slot is empty.
	var recent [256]struct {
		key   uint64
		class int
	}
	sc.servers = servers
	sc.classes = sc.classes[:0]
	// Class c's members fill row c of sc.members, maxMembers wide; the
	// length of its Members slice is its count until the final fix-up.
	sc.members = sc.members[:0]
	for si := range servers {
		alloc := servers[si].Alloc
		if !alloc.Valid() {
			return fmt.Errorf("core: server %d has invalid allocation %v", servers[si].ID, alloc)
		}
		if alloc.Total() >= sc.a.cfg.MaxVMsPerServer {
			continue
		}
		k := packKey(alloc)
		slot := &recent[(k*0x9E3779B97F4A7C15)>>56]
		ci := slot.class - 1
		if ci < 0 || slot.key != k {
			var ok bool
			if ci, ok = sc.byKey[k]; !ok {
				ci = len(sc.classes)
				sc.byKey[k] = ci
				sc.classes = append(sc.classes, ServerClass{Alloc: alloc})
				sc.members = append(sc.members, make([]int, maxMembers)...)
			}
			slot.key, slot.class = k, ci+1
		}
		if c := &sc.classes[ci]; len(c.Members) < maxMembers {
			row := ci * maxMembers
			c.Members = sc.members[row : row+len(c.Members)+1]
			c.Members[len(c.Members)-1] = si
		}
	}
	// Point every class at its row of the final members buffer (rows
	// move whenever a new class grows it).
	for ci := range sc.classes {
		c := &sc.classes[ci]
		c.Members = sc.members[ci*maxMembers : ci*maxMembers+len(c.Members)]
	}
	return nil
}

// useClasses loads caller-grouped classes, less those too full to host
// any VM, with each class trimmed to the members a search can reach. It
// checks the order the candidate merge relies on: classes in strictly
// ascending order of their lowest member, and each class's members
// ascending over the prefix the search reads.
func (sc *searchCtx) useClasses(classes []ServerClass) error {
	maxMembers := len(sc.vms) + 1
	sc.servers = nil
	sc.classes = sc.classes[:0]
	prev, havePrev := 0, false
	for _, c := range classes {
		if !c.Alloc.Valid() {
			return fmt.Errorf("core: server class has invalid allocation %v", c.Alloc)
		}
		if len(c.Members) == 0 {
			continue
		}
		if len(c.Members) > maxMembers {
			c.Members = c.Members[:maxMembers]
		}
		if havePrev && c.Members[0] <= prev {
			return fmt.Errorf("core: server class %v (lowest member %d) is out of order after lowest member %d",
				c.Alloc, c.Members[0], prev)
		}
		for i := 1; i < len(c.Members); i++ {
			if c.Members[i] <= c.Members[i-1] {
				return fmt.Errorf("core: server class %v lists members out of ascending order (%d after %d)",
					c.Alloc, c.Members[i], c.Members[i-1])
			}
		}
		prev, havePrev = c.Members[0], true
		if c.Alloc.Total() >= sc.a.cfg.MaxVMsPerServer {
			continue
		}
		sc.classes = append(sc.classes, c)
	}
	return nil
}

// serverID resolves a class member to the server's ID.
func (sc *searchCtx) serverID(member int) int {
	if sc.servers != nil {
		return sc.servers[member].ID
	}
	return member
}

// priceBlock prices growing a server from allocation base to after by
// a block holding the VM types in bmask: the per-class and per-server
// caps, the block's own QoS bounds, its time (its slowest VM's) and its
// marginal energy. QoS of VMs already tentatively placed on the server
// is rechecked per call by placedOK, because it depends on the
// partition prefix, not on (base, block). Estimates are read in place
// from the allocator's cache.
func (sc *searchCtx) priceBlock(base, after model.Key, bmask typeMask) blockPrice {
	a := sc.a
	b := &a.cfg.PerClassBound
	if after.Total() > a.cfg.MaxVMsPerServer || after.NCPU > b[workload.ClassCPU] ||
		after.NMEM > b[workload.ClassMEM] || after.NIO > b[workload.ClassIO] {
		return blockPrice{}
	}
	recAfter, err := a.est.EstimateRef(after)
	if err != nil {
		return blockPrice{}
	}
	var blockTime units.Seconds
	for m := bmask; m != 0; m &= m - 1 {
		rep := &sc.types[bits.TrailingZeros16(uint16(m))]
		ref := a.refTime[rep.Class]
		if ref <= 0 {
			return blockPrice{}
		}
		est := recAfter.ClassTime(rep.Class) * rep.NominalTime / ref
		if !a.cfg.RelaxQoS && rep.MaxTime > 0 && est > rep.MaxTime {
			return blockPrice{}
		}
		if est > blockTime {
			blockTime = est
		}
	}
	// Marginal energy is the difference between the model's whole-outcome
	// energies before and after the block arrives, clamped at zero.
	// Unlike a power-delta heuristic this prices the slowdown the new
	// block inflicts on the server's resident VMs (their outcome
	// stretches, and the stretched outcome's energy is exactly what the
	// database measured), which is what keeps the energy goal from
	// over-consolidating past the contention knee.
	var beforeEnergy units.Joules
	if !base.IsZero() {
		recBefore, err := a.est.EstimateRef(base)
		if err != nil {
			return blockPrice{}
		}
		beforeEnergy = recBefore.Energy
	}
	deltaE := recAfter.Energy - beforeEnergy
	if deltaE < 0 {
		deltaE = 0
	}
	return blockPrice{time: blockTime, energy: deltaE, ok: true}
}

// placedOK rechecks the QoS bounds of VM types already tentatively
// placed on a server whose allocation would grow to after. Counts are
// irrelevant — every VM of a type gets the same estimate — so a type
// bitmask suffices.
func (sc *searchCtx) placedOK(after model.Key, mask typeMask) bool {
	if mask == 0 || sc.a.cfg.RelaxQoS {
		return true
	}
	rec, err := sc.a.est.EstimateRef(after)
	if err != nil {
		return false
	}
	for m := mask; m != 0; m &= m - 1 {
		rep := &sc.types[bits.TrailingZeros16(uint16(m))]
		if rep.MaxTime > 0 {
			est := rec.ClassTime(rep.Class) * rep.NominalTime / sc.a.refTime[rep.Class]
			if est > rep.MaxTime {
				return false
			}
		}
	}
	return true
}

// searchWorker evaluates the distinct partitions, reducing them
// to a Pareto frontier plus the normalization maxima over every
// feasible candidate it saw. All scratch buffers are reused across
// partitions and, through the context pool, across calls.
type searchWorker struct {
	sc *searchCtx

	// Per-partition scratch. used[c] counts the members of class c the
	// partition has touched; they are always a prefix of the class's
	// members, because only a class's first untouched server is ever a
	// candidate. Reset via the touched list.
	used    []int
	touched []touchedServer
	// moved lists, in ascending server index, the candidates whose
	// position the partition has changed: every touched server, and the
	// first untouched member of every class the partition has advanced
	// past its first member. Every other candidate is the first member
	// of a class nobody touched, and those arrive already in order.
	moved []blockCand

	// Per-block scratch: the admissible options and their maxima.
	options []blockOption
	optT    units.Seconds
	optE    units.Joules
	places  []blockPlace

	// Per-composition tables, indexed by block composition id (see
	// partitionList, whose radix gives a lone VM of type t the id
	// radix[t]): the block's allocation key, type mask and VM count, and
	// its row of untouched-class options (see row).
	radix    [partition.MaxN]int
	compKey  []model.Key
	compMask []typeMask
	compSize []int
	rows     []compRow
	// rowOpts holds every built row's options back to back; rowPos[id·nc
	// + c] is the index in it of class c's option in composition id's
	// row, or -1 when class c does not admit the block.
	rowOpts []blockOption
	rowPos  []int32

	// Reduction state. The frontier's candidates point into the two
	// arenas, which only grow within a call.
	frontier    []candidate
	arenaVMs    []int
	arenaPlaces []blockPlace
	maxT        units.Seconds
	maxE        units.Joules
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
	class     int32
	touched   int32
}

// blockOption is one priced, admissible candidate of a block.
type blockOption struct {
	time   units.Seconds
	energy units.Joules
	cand   blockCand
}

// compRow is one block composition's options on the untouched server
// classes: the first member of every class that admits the block, in
// class order, at rowOpts[start:end], and their maxima. A partition's
// first block — nothing touched yet — has exactly these options, so its
// choice, win, is scored once per composition.
type compRow struct {
	start, end int32
	win        int32 // index into the row of its winner, -1 for none, rowUnscored until scored
	built      bool
	maxT       units.Seconds
	maxE       units.Joules
}

// rowUnscored marks a row whose first-block winner is not scored yet.
const rowUnscored = -2

// reset readies the worker for a new search of pl's partitions over
// sc's classes, keeping every buffer's storage.
func (w *searchWorker) reset(sc *searchCtx, pl *partitionList) {
	w.sc = sc
	w.used = append(w.used[:0], make([]int, len(sc.classes))...)
	w.touched = w.touched[:0]
	w.moved = w.moved[:0]
	w.radix = pl.radix
	w.compKey = append(w.compKey[:0], make([]model.Key, pl.nComps)...)
	w.compMask = append(w.compMask[:0], make([]typeMask, pl.nComps)...)
	w.compSize = append(w.compSize[:0], make([]int, pl.nComps)...)
	for id := 1; id < pl.nComps; id++ {
		for t := range pl.nTypes {
			if c := id / pl.radix[t] % pl.span[t]; c > 0 {
				w.compKey[id] = w.compKey[id].Add(model.KeyFor(sc.types[t].Class, c))
				w.compMask[id] |= 1 << t
				w.compSize[id] += c
			}
		}
	}
	w.rows = append(w.rows[:0], make([]compRow, pl.nComps)...)
	w.rowOpts = w.rowOpts[:0]
	w.rowPos = append(w.rowPos[:0], make([]int32, pl.nComps*len(sc.classes))...)
	w.frontier = w.frontier[:0]
	w.arenaVMs = w.arenaVMs[:0]
	w.arenaPlaces = w.arenaPlaces[:0]
	w.maxT, w.maxE = 0, 0
}

// consider evaluates partition k of pl and folds it into the worker's
// frontier, copying its blocks into the arenas if the candidate is kept.
func (w *searchWorker) consider(pl *partitionList, k int) {
	sc := w.sc
	if !w.evalPartition(pl.comps[k*pl.n : (k+1)*pl.n]) {
		sc.stats.Infeasible++
		sc.tel.infeasible.Inc()
		return
	}
	sc.stats.Feasible++
	sc.tel.feasible.Inc()
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
	// Partitions arrive in enumeration order, so every kept candidate
	// is earlier than the new one.
	for i := range w.frontier {
		f := &w.frontier[i]
		if f.time <= candT && f.energy <= candE {
			sc.stats.Pruned++
			sc.tel.pruned.Inc()
			return
		}
	}
	vs, ps := len(w.arenaVMs), len(w.arenaPlaces)
	for _, vi := range pl.vms[k*pl.n : (k+1)*pl.n] {
		w.arenaVMs = append(w.arenaVMs, int(vi))
	}
	w.arenaPlaces = append(w.arenaPlaces, w.places...)
	w.frontier = append(w.frontier, candidate{
		time:   candT,
		energy: candE,
		vms:    w.arenaVMs[vs:len(w.arenaVMs):len(w.arenaVMs)],
		places: w.arenaPlaces[ps:len(w.arenaPlaces):len(w.arenaPlaces)],
	})
}

// clearTouched forgets the servers the previous partition touched.
func (w *searchWorker) clearTouched() {
	for _, t := range w.touched {
		w.used[t.class] = 0
	}
	w.touched = w.touched[:0]
	w.moved = w.moved[:0]
}

// candBase is the allocation and placed-type mask a block candidate
// would grow from.
func (w *searchWorker) candBase(c blockCand) (model.Key, typeMask) {
	if c.touched >= 0 {
		return w.touched[c.touched].base, w.touched[c.touched].mask
	}
	return w.sc.classes[c.class].Alloc, 0
}

// take commits a block of types bmask to candidate c at allocation
// after, and returns the touched-server index it now occupies. A newly
// touched server takes its place in w.moved as touched, and its class's
// next member, if any, joins the list as the class's candidate.
func (w *searchWorker) take(c blockCand, after model.Key, bmask typeMask) int {
	if c.touched >= 0 {
		t := &w.touched[c.touched]
		t.base = after
		t.mask |= bmask
		return int(c.touched)
	}
	ti := len(w.touched)
	w.touched = append(w.touched, touchedServer{
		serverIdx: c.serverIdx,
		class:     int(c.class),
		base:      after,
		mask:      bmask,
	})
	c.touched = int32(ti)
	if w.used[c.class] == 0 {
		w.insertMoved(c)
	} else {
		// The class had already advanced: its entry is this server.
		for i := range w.moved {
			if w.moved[i].serverIdx == c.serverIdx {
				w.moved[i] = c
				break
			}
		}
	}
	w.used[c.class]++
	if members := w.sc.classes[c.class].Members; w.used[c.class] < len(members) {
		w.insertMoved(blockCand{serverIdx: members[w.used[c.class]], class: c.class, touched: -1})
	}
	return ti
}

// insertMoved inserts c into w.moved in server-index order.
func (w *searchWorker) insertMoved(c blockCand) {
	w.moved = append(w.moved, c)
	j := len(w.moved) - 1
	for j > 0 && w.moved[j-1].serverIdx > c.serverIdx {
		w.moved[j] = w.moved[j-1]
		j--
	}
	w.moved[j] = c
}

// evalPartition greedily places every block of a partition, given as
// its blocks' composition ids (zero-padded), on its best-scoring
// feasible server and prices the result into w.places
// (valid until the next call). ok is false when some block has no
// feasible server. The block-level choice mirrors the reference
// implementation exactly: servers with identical effective allocation
// collapse to the first of each group, options are max-normalized
// within the block, and the α-scored minimum wins with the epsilon
// tie-break to the lower server index.
func (w *searchWorker) evalPartition(comps []uint16) (ok bool) {
	w.clearTouched()
	w.places = w.places[:0]
	for _, id := range comps {
		if id == 0 {
			break
		}
		chosen, found := w.chooseBlock(int(id))
		if !found {
			return false
		}
		base, _ := w.candBase(chosen.cand)
		after := base.Add(w.compKey[id])
		w.take(chosen.cand, after, w.compMask[id])
		w.places = append(w.places, blockPlace{
			server: chosen.cand.serverIdx,
			n:      w.compSize[id],
			after:  after,
			time:   chosen.time,
			energy: chosen.energy,
		})
	}
	return true
}

// row returns the row of composition id, pricing the block on every
// class the first time the decision meets the composition. Pricing
// depends only on the class's allocation, not on the partition, so the
// row serves every later block of that composition.
func (w *searchWorker) row(id int) *compRow {
	r := &w.rows[id]
	if r.built {
		return r
	}
	sc := w.sc
	blockKey, bmask := w.compKey[id], w.compMask[id]
	pos := w.rowPos[id*len(sc.classes) : (id+1)*len(sc.classes)]
	r.start = int32(len(w.rowOpts))
	for ci := range sc.classes {
		c := &sc.classes[ci]
		v := sc.priceBlock(c.Alloc, c.Alloc.Add(blockKey), bmask)
		if !v.ok {
			pos[ci] = -1
			continue
		}
		pos[ci] = int32(len(w.rowOpts))
		w.rowOpts = append(w.rowOpts, blockOption{time: v.time, energy: v.energy,
			cand: blockCand{serverIdx: c.Members[0], class: int32(ci), touched: -1}})
		if v.time > r.maxT {
			r.maxT = v.time
		}
		if v.energy > r.maxE {
			r.maxE = v.energy
		}
	}
	r.end = int32(len(w.rowOpts))
	r.win, r.built = rowUnscored, true
	return r
}

// chooseBlock picks the server a block of composition id goes to in the
// current partition state and returns its option; ok is false when no
// candidate admits the block. It weighs the candidates in ascending
// server index and takes the best α-scored option.
//
// With nothing touched the options are exactly the composition's row,
// whose winner is scored once. Otherwise the walk takes the row's
// options of the classes the partition has not touched — their first
// members arrive sorted, since the classes come in order of them — and
// merges in w.moved, O(row + touched) per block with nothing sorted.
func (w *searchWorker) chooseBlock(id int) (best blockOption, ok bool) {
	sc := w.sc
	r := w.row(id)
	opts := w.rowOpts[r.start:r.end]
	if len(w.touched) == 0 {
		if r.win == rowUnscored {
			r.win = int32(w.pick(opts, r.maxT, r.maxE))
		}
		if r.win < 0 {
			return blockOption{}, false
		}
		return opts[r.win], true
	}
	w.options = w.options[:0]
	w.optT, w.optE = 0, 0
	moved := w.moved
	for i := range opts {
		o := &opts[i]
		if w.used[o.cand.class] > 0 {
			continue // listed in moved, or exhausted
		}
		lead := o.cand.serverIdx
		for len(moved) > 0 && moved[0].serverIdx < lead {
			w.offer(moved[0], id)
			moved = moved[1:]
		}
		if !w.hidden(lead, sc.classes[o.cand.class].Alloc) {
			w.addOption(*o)
		}
	}
	for _, c := range moved {
		w.offer(c, id)
	}
	bestI := w.pick(w.options, w.optT, w.optE)
	if bestI < 0 {
		return blockOption{}, false
	}
	return w.options[bestI], true
}

// pick returns the index of the best α-scored option after
// normalizing by maxT and maxE, the lowest index on ties, or -1 when
// there is none.
func (w *searchWorker) pick(opts []blockOption, maxT units.Seconds, maxE units.Joules) int {
	alpha := w.sc.goal.Alpha
	bestI := -1
	bestScore := 0.0
	for i := range opts {
		o := &opts[i]
		tn, en := 0.0, 0.0
		if maxT > 0 {
			tn = float64(o.time) / float64(maxT)
		}
		if maxE > 0 {
			en = float64(o.energy) / float64(maxE)
		}
		// The block-level choice honors the same α as the
		// allocation-level ranking.
		score := alpha*en + (1-alpha)*tn
		if bestI < 0 || score < bestScore-scoreEpsilon {
			bestScore, bestI = score, i
		}
	}
	return bestI
}

// offer weighs a moved candidate — a touched server, or an advanced
// class's next member — and adds it to the block's options if it
// admits the block.
func (w *searchWorker) offer(c blockCand, id int) {
	base, mask := w.candBase(c)
	if w.hidden(c.serverIdx, base) {
		return
	}
	if c.touched < 0 {
		// An advanced class's next member sits at the class's allocation:
		// it admits the block, at the same price, iff the class's lead does.
		if p := w.rowPos[id*len(w.sc.classes)+int(c.class)]; p >= 0 {
			w.addOption(blockOption{time: w.rowOpts[p].time, energy: w.rowOpts[p].energy, cand: c})
		}
		return
	}
	after := base.Add(w.compKey[id])
	if v := w.sc.priceBlock(base, after, w.compMask[id]); v.ok && w.sc.placedOK(after, mask) {
		w.addOption(blockOption{time: v.time, energy: v.energy, cand: c})
	}
}

// addOption appends an admissible option, tracking the block's
// normalization maxima.
func (w *searchWorker) addOption(o blockOption) {
	w.options = append(w.options, o)
	if o.time > w.optT {
		w.optT = o.time
	}
	if o.energy > w.optE {
		w.optE = o.energy
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

// decide runs the search over the loaded classes and returns the
// winning candidate, or the first-fit fallback's when the budget or
// the Cancel hook cut the search (stats.Degraded).
func (sc *searchCtx) decide() (candidate, error) {
	pl, err := sc.partitions()
	if err != nil {
		return candidate{}, err
	}
	w := &sc.w
	w.reset(sc, pl)
	exhausted := sc.enumerate(pl)
	sc.stats.Exhausted = exhausted
	if exhausted {
		sc.tel.exhausted.Inc()
		c, err := w.firstFit()
		if err != nil {
			return candidate{}, err
		}
		sc.tel.degraded.Inc()
		sc.stats.Degraded = true
		return c, nil
	}
	if len(w.frontier) == 0 {
		return candidate{}, ErrInfeasible
	}
	return w.frontier[pickBest(sc.goal, w.frontier, w.maxT, w.maxE)], nil
}

// enumerate hands the distinct partitions, in list order, to the
// worker, which reduces them to a Pareto frontier plus the
// normalization maxima over all feasible candidates, spending the
// budget and polling Cancel before each. exhausted reports that
// Config.SearchBudget ran out or Cancel fired before the list was done
// — the partial frontier must then be discarded (a truncated search
// breaks the normalization constants and the first-of-the-list
// tie-break) and the caller degrades to the first-fit fallback.
//
// The budget counts distinct partitions scored, so exhaustion strikes
// at the same partition on every run: budgeted runs replay
// bit-for-bit. The enumeration counts are those of a walk over every
// set partition that skips repeats and stops at the cut, read off the
// rank of the partition the search stopped at.
func (sc *searchCtx) enumerate(pl *partitionList) (exhausted bool) {
	budget := sc.a.cfg.SearchBudget
	cancel := sc.a.cfg.Cancel
	k := 0
	for ; k < pl.count; k++ {
		if budget > 0 && k >= budget {
			break
		}
		if cancel != nil && cancel() {
			break
		}
		sc.w.consider(pl, k)
	}
	sc.stats.Enumerated, sc.stats.Deduped = pl.walked(k)
	sc.tel.enumerated.Add(int64(sc.stats.Enumerated))
	sc.tel.deduped.Add(int64(sc.stats.Deduped))
	return k < pl.count
}

// materialize expands a winning candidate into the public Allocation
// form, reconstructing per-block VM lists from the stored indices.
func (sc *searchCtx) materialize(c candidate) Allocation {
	pls := make([]Placement, len(c.places))
	off := 0
	for i, p := range c.places {
		vms := make([]VMRequest, p.n)
		for j, vi := range c.vms[off : off+p.n] {
			vms[j] = sc.vms[vi]
		}
		off += p.n
		pls[i] = Placement{
			ServerID: sc.serverID(p.server),
			VMs:      vms,
			NewAlloc: p.after,
			EstTime:  p.time,
		}
	}
	return Allocation{Placements: pls, EstTime: c.time, EstEnergy: c.energy}
}

// assign writes a candidate's server IDs into dst by VM index.
func (sc *searchCtx) assign(c candidate, dst []int) []int {
	if len(dst) < len(sc.vms) {
		dst = make([]int, len(sc.vms))
	}
	dst = dst[:len(sc.vms)]
	off := 0
	for _, p := range c.places {
		id := sc.serverID(p.server)
		for _, vi := range c.vms[off : off+p.n] {
			dst[vi] = id
		}
		off += p.n
	}
	return dst
}
