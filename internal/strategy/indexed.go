package strategy

// Capacity-indexed placement. The datacenter simulator owns the fleet
// state, so scanning every server on every placement (the naive
// first-fit transcription) costs O(servers) per VM and dominates large
// simulations. FleetIndex is the simulator-maintained alternative: it
// buckets servers by occupancy — Alloc.Total(), the residual-headroom
// key every slot-arithmetic strategy decides on — behind a two-level
// bitmap per occupancy threshold, so "lowest-id server with a free slot
// under cap c" resolves in O(1) word operations (O(n/4096) worst case)
// instead of a fleet scan, and every occupancy change updates exactly
// one threshold set in O(1).
//
// The simulator and the placement service place through IndexedPlacer
// only. The linear Place scan stays on every strategy as the reference
// implementation the test-only oracle in internal/cloudsim drives, and
// the golden tests there prove both place identically.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/workload"
)

// IndexedPlacer is implemented by strategies that can place through a
// FleetIndex maintained incrementally by the caller. PlaceIndexed must
// decide exactly as Place would on the equivalent server view: it reads
// the index but never mutates it (the caller commits accepted
// placements by updating the index afterwards). dst, when non-nil, is a
// caller-owned scratch buffer the assignment may be built in — the
// returned slice aliases it, so callers must consume the assignment
// before the next PlaceIndexed call. Implementations must stay
// stateless: one strategy value may serve several concurrent
// simulations, each with its own index.
type IndexedPlacer interface {
	Strategy
	PlaceIndexed(idx *FleetIndex, vms []core.VMRequest, dst []int) (assign []int, ok bool)
}

// IndexedExplainer is implemented by indexed strategies that can
// attribute their decisions (see Explainer): PlaceIndexedExplained must
// decide exactly as PlaceIndexed, under the same contract.
type IndexedExplainer interface {
	IndexedPlacer
	PlaceIndexedExplained(idx *FleetIndex, vms []core.VMRequest, dst []int) (assign []int, ok bool, info PlaceInfo)
}

// FleetIndex buckets a fleet of servers by VM occupancy. Server ids are
// dense indices 0..Len()-1, matching the simulator's server slice. It
// also tracks each server's allocation key, and on demand groups the up
// servers into classes of identical allocation (see Classes).
type FleetIndex struct {
	// alloc is each server's allocation, one packed word per server, so
	// the first-fit probes and every update touch no more memory than a
	// bare occupancy count would; its total is the occupancy every
	// threshold set is keyed on.
	alloc []packedAlloc
	// levels[c-1] holds the servers with used < c, for c = 1..maxOcc+1.
	// An occupancy step o -> o+1 leaves exactly levels[o]; a step
	// o -> o-1 re-enters exactly levels[o-1]: O(1) per change.
	levels []bitset
	// cnt[k] tracks |levels[k]| so prefix sums answer "how many free
	// slots exist under cap c" exactly, without touching a bitmap:
	// Σ_{k<c} cnt[k] = Σ_{up servers} max(0, c-used). See FreeSlotsBelow.
	cnt    []int
	maxOcc int
	// down marks crashed servers. A down server is a member of no
	// threshold set regardless of occupancy, so indexed placement skips
	// it for free; SetUp restores membership from used without a rebuild.
	down []bool
	// over holds the up servers whose occupancy exceeds maxOcc (a
	// consolidator may overfill past the admission limit). They belong to
	// no threshold set, so the wide-cap placement path (cap > maxOcc+1)
	// scans exactly levels[maxOcc] ∪ over instead of the whole fleet.
	over  bitset
	nOver int
	// freeSum caches Σ_{up servers} max(0, maxOcc+1-used) — the full
	// prefix sum over cnt — so the common FreeSlotsBelow query (cap at
	// the indexed ceiling, issued once per queued job per drain) is one
	// load instead of an O(maxOcc) sum.
	freeSum int
	// classes groups the up servers by allocation; nil until the first
	// Classes query, so first-fit runs never maintain it.
	classes *classIndex
}

// NewFleetIndex builds an index over n empty servers whose occupancy
// never exceeds maxOcc (the simulator's per-server admission limit).
func NewFleetIndex(n, maxOcc int) *FleetIndex {
	if n < 0 || maxOcc < 1 {
		return nil
	}
	f := &FleetIndex{
		alloc:  make([]packedAlloc, n),
		levels: make([]bitset, maxOcc+1),
		cnt:    make([]int, maxOcc+1),
		maxOcc: maxOcc,
		down:   make([]bool, n),
		over:   newBitset(n),
	}
	for i := range f.levels {
		f.levels[i] = newBitset(n)
		f.levels[i].setAll()
		f.cnt[i] = n
	}
	f.freeSum = n * (maxOcc + 1)
	return f
}

// Len returns the fleet size.
func (f *FleetIndex) Len() int { return len(f.alloc) }

// Used returns server i's current occupancy.
func (f *FleetIndex) Used(i int) int { return f.alloc[i].total() }

// Alloc returns server i's current allocation.
func (f *FleetIndex) Alloc(i int) model.Key { return f.alloc[i].key() }

// MaxOcc returns the indexed occupancy ceiling (the admission limit the
// index was built with).
func (f *FleetIndex) MaxOcc() int { return f.maxOcc }

// FreeSlotsBelow returns the number of VM slots open across up servers
// under a per-server cap: exactly Σ max(0, cap-used) over up servers
// when cap <= MaxOcc()+1, and a lower bound on it for wider caps
// (overfilled and wide headroom beyond the indexed range is not
// counted). O(cap) integer adds, no bitmap traffic.
func (f *FleetIndex) FreeSlotsBelow(cap int) int {
	if cap >= f.maxOcc+1 {
		return f.freeSum
	}
	total := 0
	for k := 0; k < cap; k++ {
		total += f.cnt[k]
	}
	return total
}

// slotsUnderCeil is server i's freeSum contribution: its free slots
// under the indexed ceiling, zero when overfilled.
func (f *FleetIndex) slotsUnderCeil(i int) int {
	if c := f.maxOcc + 1 - f.Used(i); c > 0 {
		return c
	}
	return 0
}

// Add adds delta VMs of class c to server i (a negative delta removes
// them). Occupancy
// may exceed maxOcc (the simulator's consolidator can overfill a server
// past the placement admission limit); such servers simply leave every
// threshold set, which is the correct membership for any indexed cap.
// A negative count panics — it means the caller's bookkeeping is
// corrupt. With classes built, the server also moves to the class of
// its new allocation in O(1).
func (f *FleetIndex) Add(i int, c workload.Class, delta int) {
	if !c.Valid() {
		panic("strategy: FleetIndex update with an invalid class")
	}
	old := f.alloc[i]
	shift := packBits * uint(c)
	cnt := int(old>>shift&packMask) + delta
	if cnt < 0 {
		panic("strategy: FleetIndex occupancy went negative")
	}
	if cnt > packMask {
		panic("strategy: FleetIndex class count overflows its packed field")
	}
	if delta == 0 {
		return
	}
	nw := old&^(packMask<<shift) | packedAlloc(cnt)<<shift
	f.alloc[i] = nw
	if f.down[i] {
		// A down server is a member of no threshold set or class; SetUp
		// restores membership from the tracked allocation.
		return
	}
	if f.classes != nil {
		f.classes.leave(i)
		f.classes.join(i, nw)
	}
	o := old.total()
	n := o + delta
	if co, cn := f.maxOcc+1-o, f.maxOcc+1-n; co > 0 || cn > 0 {
		if co < 0 {
			co = 0
		}
		if cn < 0 {
			cn = 0
		}
		f.freeSum += cn - co
	}
	if o <= f.maxOcc && n > f.maxOcc {
		f.over.set(i)
		f.nOver++
	} else if o > f.maxOcc && n <= f.maxOcc {
		f.over.clear(i)
		f.nOver--
	}
	for ; o < n; o++ {
		if o < len(f.levels) {
			f.levels[o].clear(i) // left levels[c-1] for c = o+1
			f.cnt[o]--
		}
	}
	for ; o > n; o-- {
		if o-1 < len(f.levels) {
			f.levels[o-1].set(i) // rejoined levels[c-1] for c = o
			f.cnt[o-1]++
		}
	}
}

// NumUp returns the number of up servers: those at or under the
// ceiling plus the overfilled ones.
func (f *FleetIndex) NumUp() int { return f.cnt[f.maxOcc] + f.nOver }

// Down reports whether server i is marked down.
func (f *FleetIndex) Down(i int) bool { return f.down[i] }

// SetDown marks server i down: it leaves every threshold set, so no
// indexed placement can choose it, in O(maxOcc) word operations — no
// index rebuild. Marking a down server down again panics; it means the
// caller's crash/recover bookkeeping is corrupt.
func (f *FleetIndex) SetDown(i int) {
	if f.down[i] {
		panic("strategy: FleetIndex server already down")
	}
	f.down[i] = true
	f.freeSum -= f.slotsUnderCeil(i)
	// Membership invariant while up: i ∈ levels[k] iff used[i] <= k.
	for k := f.Used(i); k < len(f.levels); k++ {
		f.levels[k].clear(i)
		f.cnt[k]--
	}
	if f.classes != nil {
		f.classes.leave(i)
	}
	if f.Used(i) > f.maxOcc {
		f.over.clear(i)
		f.nOver--
	}
}

// SetUp marks server i up again, restoring its threshold-set membership
// from its tracked occupancy. Marking an up server up panics.
func (f *FleetIndex) SetUp(i int) {
	if !f.down[i] {
		panic("strategy: FleetIndex server already up")
	}
	f.down[i] = false
	f.freeSum += f.slotsUnderCeil(i)
	for k := f.Used(i); k < len(f.levels); k++ {
		f.levels[k].set(i)
		f.cnt[k]++
	}
	if f.classes != nil {
		f.classes.join(i, f.alloc[i])
	}
	if f.Used(i) > f.maxOcc {
		f.over.set(i)
		f.nOver++
	}
}

// FirstBelow returns the lowest server id >= from whose occupancy is
// strictly below cap, or -1 when no such server exists. Caps within the
// indexed range resolve through the threshold bitmaps; a cap beyond
// maxOcc+1 (a strategy multiplexing past the admission limit) resolves
// through levels[maxOcc] merged with the overfilled set — every up
// server with used <= maxOcc qualifies outright, and the few past the
// limit are checked individually — so the former full-fleet linear
// fallback is gone and the answer still matches what a scan of the
// view would report.
func (f *FleetIndex) FirstBelow(cap, from int) int {
	if cap < 1 || from >= len(f.alloc) {
		return -1
	}
	if from < 0 {
		from = 0
	}
	if cap > f.maxOcc+1 {
		c := f.levels[f.maxOcc].firstFrom(from)
		if f.nOver > 0 {
			for i := f.over.firstFrom(from); i >= 0 && (c < 0 || i < c); i = f.over.firstFrom(i + 1) {
				if f.Used(i) < cap {
					return i
				}
			}
		}
		return c
	}
	return f.levels[cap-1].firstFrom(from)
}

// PlaceIndexed is the indexed first-fit: each VM goes to the lowest-id
// server with a free slot, found through the occupancy index instead of
// a fleet scan. Identical placements to Place, in O(1) per VM.
func (f *FirstFit) PlaceIndexed(idx *FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	if len(vms) == 0 {
		return nil, false
	}
	cap := f.Cap()
	if len(dst) < len(vms) {
		dst = make([]int, len(vms))
	}
	assign := dst[:len(vms)]
	for v := range vms {
		from := 0
		for {
			c := idx.FirstBelow(cap, from)
			if c < 0 {
				return nil, false
			}
			// Account for this job's earlier VMs tentatively placed on c
			// (at most len(vms)-1 of them, never committed to the index).
			extra := 0
			for j := 0; j < v; j++ {
				if assign[j] == c {
					extra++
				}
			}
			if idx.Used(c)+extra < cap {
				assign[v] = c
				break
			}
			from = c + 1
		}
	}
	return assign, true
}

// PlaceIndexed is the indexed best-fit: each VM goes to the fullest up
// server still under the cap, lowest id on ties, counting this job's
// earlier VMs on the servers they went to. Identical placements to
// Place on the index's up servers in id order. The server a VM takes
// is then strictly the fullest, so the job's next VM follows it until
// it reaches the cap; only then is the index searched again, and the
// servers left behind are full. Occupancy levels that hold no server
// are skipped on their counts, so a search costs one bitmap walk of
// the fullest non-empty level under the cap.
func (b *BestFit) PlaceIndexed(idx *FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	if b.Multiplex < 1 || len(vms) == 0 {
		return nil, false
	}
	cap := b.cap()
	if len(dst) < len(vms) {
		dst = make([]int, len(vms))
	}
	assign := dst[:len(vms)]
	for v := range vms {
		if v > 0 {
			last := assign[v-1]
			if idx.Used(last)+v-slices.Index(assign[:v], last) < cap {
				assign[v] = last
				continue
			}
		}
		if assign[v] = idx.fullestBelow(cap, assign[:v]); assign[v] < 0 {
			return nil, false
		}
	}
	return assign, true
}

// fullestBelow returns the up server outside skip with the highest
// occupancy below cap, lowest id on ties, or -1 when there is none.
// Overfilled servers, which only a cap past maxOcc+1 admits, outrank
// every threshold level.
func (f *FleetIndex) fullestBelow(cap int, skip []int) int {
	if cap > f.maxOcc+1 && f.nOver > 0 {
		best, bestUsed := -1, -1
		for i := f.over.firstFrom(0); i >= 0; i = f.over.firstFrom(i + 1) {
			if u := f.Used(i); u < cap && u > bestUsed && !slices.Contains(skip, i) {
				best, bestUsed = i, u
			}
		}
		if best >= 0 {
			return best
		}
	}
	for u := min(cap-1, f.maxOcc); u >= 0; u-- {
		n := f.cnt[u]
		if u > 0 {
			n -= f.cnt[u-1]
		}
		// n counts the servers at level u: once every one of them is in
		// skip, the level is done without walking the rest of its bitmap.
		for i := 0; n > 0; n-- {
			if i = f.firstAt(u, i); i < 0 {
				break
			}
			if !slices.Contains(skip, i) {
				return i
			}
			i++
		}
	}
	return -1
}

// firstAt returns the lowest up server id >= from whose occupancy is
// exactly u (u <= maxOcc), or -1: the first member of
// levels[u] &^ levels[u-1].
func (f *FleetIndex) firstAt(u, from int) int {
	in := &f.levels[u]
	if u == 0 {
		return in.firstFrom(from)
	}
	below := &f.levels[u-1]
	for i := in.firstFrom(from); i >= 0; {
		w := i / 64
		if rem := (in.words[w] &^ below.words[w]) >> (i % 64); rem != 0 {
			return i + bits.TrailingZeros64(rem)
		}
		i = in.scanFrom((w + 1) * 64)
	}
	return -1
}

// AuditInvariants re-derives every structural invariant of the index
// from first principles and reports the first violation found, or nil.
// alloc is the caller's ground-truth allocation for server i (the
// simulator derives it from each server's VM list, the service from its
// placement table: sources the index never reads). With classes built,
// class membership is re-derived too. The walk is O(servers × maxOcc) — read-only,
// intended for a periodic watchdog, not a hot path.
func (f *FleetIndex) AuditInvariants(alloc func(i int) model.Key) error {
	freeSum, nOver := 0, 0
	for i := range f.alloc {
		if g := alloc(i); f.Alloc(i) != g {
			return fmt.Errorf("strategy: index allocation for server %d is %v, ground truth %v", i, f.Alloc(i), g)
		}
		inOver := f.over.has(i)
		if f.down[i] {
			if inOver {
				return fmt.Errorf("strategy: down server %d is in the overfilled set", i)
			}
			for k := range f.levels {
				if f.levels[k].has(i) {
					return fmt.Errorf("strategy: down server %d is in threshold set %d", i, k)
				}
			}
			continue
		}
		used := f.Used(i)
		freeSum += f.slotsUnderCeil(i)
		if wantOver := used > f.maxOcc; inOver != wantOver {
			return fmt.Errorf("strategy: server %d (used %d, ceiling %d) overfilled-set membership is %v",
				i, used, f.maxOcc, inOver)
		}
		if inOver {
			nOver++
		}
		for k := range f.levels {
			if want := used <= k; f.levels[k].has(i) != want {
				return fmt.Errorf("strategy: server %d (used %d) threshold-set %d membership is %v",
					i, used, k, !want)
			}
		}
	}
	for k := range f.levels {
		if pc := f.levels[k].count(); f.cnt[k] != pc {
			return fmt.Errorf("strategy: cnt[%d] = %d, bitmap holds %d servers", k, f.cnt[k], pc)
		}
	}
	if pc := f.over.count(); f.nOver != pc {
		return fmt.Errorf("strategy: nOver = %d, overfilled bitmap holds %d servers", f.nOver, pc)
	}
	if nOver != f.nOver {
		return fmt.Errorf("strategy: nOver = %d, ground-truth overfilled count is %d", f.nOver, nOver)
	}
	if freeSum != f.freeSum {
		return fmt.Errorf("strategy: freeSum = %d, re-derived free-slot sum is %d", f.freeSum, freeSum)
	}
	if f.classes != nil {
		return f.classes.audit(f)
	}
	return nil
}

// Classes groups the up servers into classes of identical allocation,
// in ascending order of each class's lowest member, listing each
// class's lowest maxMembers server ids in ascending order — the input
// core.Allocator.AllocateClasses searches. The first call builds the
// grouping in O(servers); from then on Add, SetDown and SetUp keep it
// current in O(1). The index keeps the class order of the previous
// query and repairs it with one insertion pass keyed on each class's
// lowest member; between two decisions only the few classes whose
// lowest member changed are out of place, so the repair costs
// O(classes) and a query O(classes × maxMembers), with no heap
// allocation once its buffers have grown. The result aliases
// index-owned storage, valid until the next Classes call or mutation;
// like every index method, it must not race with other use of the
// index.
func (f *FleetIndex) Classes(maxMembers int) []core.ServerClass {
	if f.classes == nil {
		f.buildClasses()
	}
	ci := f.classes
	for s := range ci.sets {
		c := &ci.sets[s]
		c.first = noMember
		if c.n > 0 {
			c.first = c.members.firstFrom(0)
		}
	}
	order := ci.order
	for i := 1; i < len(order); i++ {
		s, first := order[i], ci.sets[order[i]].first
		j := i
		for ; j > 0 && ci.sets[order[j-1]].first > first; j-- {
			order[j] = order[j-1]
		}
		order[j] = s
	}
	ci.out, ci.mem = ci.out[:0], ci.mem[:0]
	for _, s := range order {
		c := &ci.sets[s]
		if c.n == 0 {
			break // retired sets sort last
		}
		start := len(ci.mem)
		for m := c.first; m >= 0 && len(ci.mem)-start < maxMembers; m = c.members.scanFrom(m + 1) {
			ci.mem = append(ci.mem, m)
		}
		// A growing ci.mem leaves earlier classes on the old array,
		// whose contents stay valid: it is never written again.
		ci.out = append(ci.out, core.ServerClass{Alloc: c.key, Members: ci.mem[start:len(ci.mem):len(ci.mem)]})
	}
	return ci.out
}

// buildClasses groups every up server by allocation.
func (f *FleetIndex) buildClasses() {
	ci := &classIndex{
		slot: make(map[packedAlloc]int32),
		of:   make([]int32, len(f.alloc)),
		n:    len(f.alloc),
	}
	for i := range f.alloc {
		ci.of[i] = -1
		if !f.down[i] {
			ci.join(i, f.alloc[i])
		}
	}
	f.classes = ci
}

// classIndex is the index's grouping of up servers by allocation: one
// member bitset per live allocation, the same two-level bitset the
// threshold sets use, so the lowest members of a class resolve in a
// few word operations however large the fleet.
type classIndex struct {
	slot map[packedAlloc]int32 // live allocation -> its set in sets
	sets []classSet
	free []int32 // sets emptied of members, ready for reuse
	of   []int32 // server -> its set; -1 while down
	n    int     // fleet size
	// order lists every set once, in the previous Classes query's
	// order: ascending lowest member, retired sets last. A set joins at
	// the end when it is created.
	order []int32

	// Classes query buffers.
	out []core.ServerClass
	mem []int
}

// classSet is one allocation's up servers.
type classSet struct {
	packed  packedAlloc
	key     model.Key
	members bitset
	n       int
	// first is the lowest member as of the last Classes query, or
	// noMember for a retired set: the key of the class order.
	first int
}

// noMember is a retired set's order key: it sorts after every server id.
const noMember = math.MaxInt

// join adds up server i to the class of allocation k.
func (ci *classIndex) join(i int, k packedAlloc) {
	s, ok := ci.slot[k]
	if !ok {
		if nf := len(ci.free); nf > 0 {
			s = ci.free[nf-1]
			ci.free = ci.free[:nf-1]
		} else {
			s = int32(len(ci.sets))
			ci.sets = append(ci.sets, classSet{members: newBitset(ci.n)})
			ci.order = append(ci.order, s)
		}
		ci.sets[s].packed, ci.sets[s].key = k, k.key()
		ci.slot[k] = s
	}
	c := &ci.sets[s]
	c.members.set(i)
	c.n++
	ci.of[i] = s
}

// leave removes server i from its class, retiring the class when it
// empties.
func (ci *classIndex) leave(i int) {
	s := ci.of[i]
	c := &ci.sets[s]
	c.members.clear(i)
	c.n--
	if c.n == 0 {
		delete(ci.slot, c.packed)
		ci.free = append(ci.free, s)
	}
	ci.of[i] = -1
}

// audit re-derives class membership from the index's allocations and
// down marks: every up server sits in exactly the class of its
// allocation, every down server in none, and each class's count,
// bitmap and lookup entry agree.
func (ci *classIndex) audit(f *FleetIndex) error {
	up := 0
	for i := range f.alloc {
		s := ci.of[i]
		if f.down[i] {
			if s != -1 {
				return fmt.Errorf("strategy: down server %d is in allocation class %d", i, s)
			}
			continue
		}
		up++
		if s < 0 || int(s) >= len(ci.sets) {
			return fmt.Errorf("strategy: up server %d has no allocation class", i)
		}
		if c := &ci.sets[s]; c.key != f.Alloc(i) || !c.members.has(i) {
			return fmt.Errorf("strategy: server %d (alloc %v) is filed under class %v (member %v)",
				i, f.Alloc(i), c.key, c.members.has(i))
		}
	}
	total, live := 0, 0
	for s := range ci.sets {
		c := &ci.sets[s]
		if pc := c.members.count(); pc != c.n {
			return fmt.Errorf("strategy: class %v counts %d members, bitmap holds %d", c.key, c.n, pc)
		}
		total += c.n
		if c.n > 0 {
			live++
			if got, ok := ci.slot[c.packed]; !ok || got != int32(s) || c.key != c.packed.key() {
				return fmt.Errorf("strategy: class %v is not looked up at its set %d", c.key, s)
			}
		}
	}
	if total != up {
		return fmt.Errorf("strategy: allocation classes hold %d members, %d servers are up", total, up)
	}
	if len(ci.slot) != live {
		return fmt.Errorf("strategy: %d class lookups for %d live classes", len(ci.slot), live)
	}
	listed := make([]bool, len(ci.sets))
	for _, s := range ci.order {
		if s < 0 || int(s) >= len(ci.sets) || listed[s] {
			return fmt.Errorf("strategy: class order lists set %d twice or out of range", s)
		}
		listed[s] = true
	}
	if len(ci.order) != len(ci.sets) {
		return fmt.Errorf("strategy: class order lists %d of %d sets", len(ci.order), len(ci.sets))
	}
	return nil
}

// CapacityHinter is implemented by indexed strategies that can answer
// "could a job of n VMs be placed right now?" from the index's
// free-capacity summary without running the placement. The contract is
// one-sided where it must be: when exact is true the answer equals what
// PlaceIndexed would report, so a caller may skip a provably futile
// attempt (the drainQueue early-stop); when exact is false the caller
// must attempt anyway. fits=false with exact=true is therefore the only
// combination that changes control flow, and it must never be wrong.
// Exact answers must additionally be monotone in n — if n VMs provably
// cannot fit, no larger job can — which lets the caller reuse one
// no-fit answer for every bigger job while the index only loses
// capacity (the drainQueue scan memo).
type CapacityHinter interface {
	CanFit(idx *FleetIndex, n int) (fits, exact bool)
}

// CanFit answers first-fit feasibility exactly from the occupancy
// summary: with a per-server cap c, PlaceIndexed succeeds iff the fleet
// holds at least n free slots under c — the greedy walk consumes one
// counted slot per VM and never strands one. Caps beyond the indexed
// range carry headroom the summary does not count, so those report
// inexact and force an attempt.
func (f *FirstFit) CanFit(idx *FleetIndex, n int) (fits, exact bool) {
	cap := f.Cap()
	if cap > idx.MaxOcc()+1 {
		return true, false
	}
	return idx.FreeSlotsBelow(cap) >= n, true
}

// packedAlloc is a server's allocation packed packBits bits per class,
// in class order (Ncpu lowest). No server holds anywhere near 2^21 VMs
// of a class; Add panics rather than overflow a field.
type packedAlloc uint64

const (
	packBits = 21
	packMask = 1<<packBits - 1
)

// key unpacks the allocation.
func (p packedAlloc) key() model.Key {
	return model.Key{NCPU: int(p & packMask), NMEM: int(p >> packBits & packMask), NIO: int(p >> (2 * packBits) & packMask)}
}

// total is the allocation's VM count.
func (p packedAlloc) total() int {
	return int(p&packMask + p>>packBits&packMask + p>>(2*packBits)&packMask)
}

// bitset is a two-level bitmap over server ids: summary bit w is set
// iff word w has any bit set, so firstFrom skips empty regions 4096
// servers at a time. low is a lazily maintained frontier hint — a lower
// bound on the first set id (n when provably empty) — so the dominant
// query pattern, firstFrom(0) against a fleet whose low ids are packed
// solid, resolves in O(1) instead of re-walking the full prefix of
// cleared summary words on every placement.
type bitset struct {
	words   []uint64
	summary []uint64
	n       int
	low     int
}

func newBitset(n int) bitset {
	nw := (n + 63) / 64
	return bitset{
		words:   make([]uint64, nw),
		summary: make([]uint64, (nw+63)/64),
		n:       n,
	}
}

// setAll marks every id in [0, n).
func (b *bitset) setAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if tail := b.n % 64; tail != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] = (1 << tail) - 1
	}
	for i := range b.summary {
		b.summary[i] = 0
	}
	for w := range b.words {
		if b.words[w] != 0 {
			b.summary[w/64] |= 1 << (w % 64)
		}
	}
	b.low = 0
}

func (b *bitset) set(i int) {
	w := i / 64
	b.words[w] |= 1 << (i % 64)
	b.summary[w/64] |= 1 << (w % 64)
	if i < b.low {
		b.low = i
	}
}

// has reports whether id i is set.
func (b *bitset) has(i int) bool {
	return b.words[i/64]>>(i%64)&1 != 0
}

// count returns the number of set ids.
func (b *bitset) count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// clear leaves low untouched: the hint is a lower bound, and clearing a
// bit can only move the true first set id upward.
func (b *bitset) clear(i int) {
	w := i / 64
	b.words[w] &^= 1 << (i % 64)
	if b.words[w] == 0 {
		b.summary[w/64] &^= 1 << (w % 64)
	}
}

// firstFrom returns the lowest set id >= from, or -1. Queries from at
// or below the frontier hint start the walk at the hint and refresh it
// with the exact answer on the way out.
func (b *bitset) firstFrom(from int) int {
	if from < 0 {
		from = 0
	}
	useHint := from <= b.low
	if useHint {
		from = b.low
	}
	r := b.scanFrom(from)
	if useHint {
		if r < 0 {
			b.low = b.n
		} else {
			b.low = r
		}
	}
	return r
}

// scanFrom is the hint-free bitmap walk behind firstFrom.
func (b *bitset) scanFrom(from int) int {
	if from >= b.n {
		return -1
	}
	w := from / 64
	if rem := b.words[w] >> (from % 64); rem != 0 {
		return from + bits.TrailingZeros64(rem)
	}
	// Climb to the summary level for the next non-empty word.
	sw := (w + 1) / 64
	shift := (w + 1) % 64
	for ; sw < len(b.summary); sw++ {
		s := b.summary[sw] >> shift
		if s != 0 {
			word := sw*64 + shift + bits.TrailingZeros64(s)
			return word*64 + bits.TrailingZeros64(b.words[word])
		}
		shift = 0
	}
	return -1
}
