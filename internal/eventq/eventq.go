// Package eventq implements the future-event list used by the PACE-VM
// discrete-event simulators: a slab-backed 4-ary min-heap of timestamped
// events with stable FIFO ordering among simultaneous events and
// O(log n) cancellation by handle.
//
// Stable ordering matters for reproducibility: when a job arrival and a
// job completion carry the same timestamp the simulator must process
// them in a deterministic order, otherwise placement decisions (and
// therefore every downstream metric) vary between runs.
//
// The queue is allocation-free on the hot path. Events are a small
// tagged value struct rather than boxed interfaces, pending events live
// in a reusable slab indexed by the heap, and handles are
// generation-checked slab indices: popping or cancelling an event bumps
// its slot's generation, so a stale handle kept across slot reuse is
// detected instead of silently cancelling an unrelated event. The 4-ary
// layout halves the tree depth of a binary heap and keeps sift-down
// children on one cache line of the index array.
package eventq

import (
	"pacevm/internal/obs"
	"pacevm/internal/units"
)

// Kind discriminates event payloads. The simulator that owns the queue
// defines its own kind values; the queue never interprets them.
type Kind uint8

// Event is the payload scheduled on a Queue: a small tagged union whose
// Arg indexes into simulator-owned state (a request, a server, ...).
type Event struct {
	Kind Kind
	Arg  int32
}

// Handle identifies a scheduled event for cancellation. Handles are
// valid until the event is popped or cancelled; a handle kept beyond
// that is detected as stale even after its slab slot has been reused.
// The zero Handle is never valid.
type Handle struct {
	slot int32 // slab index + 1; 0 is the zero handle
	gen  uint32
}

// SeqRuntimeBase is the first sequence number Schedule assigns. The
// space below it is reserved for ScheduleSequenced: callers that merge
// several deterministic event streams into one queue (the sharded
// simulator's cross-shard admission messages) pre-assign sequence
// numbers in that band, so a pre-sequenced event at time t always pops
// before any Schedule-assigned event at the same t — exactly the order
// a single-queue simulator that schedules its whole input up front
// would produce, independent of when the merge delivers the message.
const SeqRuntimeBase uint64 = 1 << 41

// slot is one slab entry. A slot is live while pos >= 0; freeing it
// bumps gen, invalidating any outstanding handles to the old event.
type slot struct {
	at  units.Seconds
	seq uint64
	ev  Event
	gen uint32
	pos int32 // index into Queue.heap; -1 when free
}

// heapEntry mirrors a live slot's sort key next to its slab index. The
// comparator runs entirely on the heap array — during a sift the four
// children's keys sit on two cache lines instead of behind four random
// slab dereferences, which is where a 100k-server fleet's queue spends
// most of its time. The slot remains the source of truth for handles;
// Reschedule updates both.
type heapEntry struct {
	at  units.Seconds
	seq uint64
	idx int32
}

// Queue is a future-event list. The zero value is an empty queue ready
// to use. Queue is not safe for concurrent use; the simulators are
// single-threaded per replication and parallelize across replications.
type Queue struct {
	slots []slot
	heap  []heapEntry // 4-ary min-heap, min at heap[0]
	free  []int32     // recycled slab indices
	seq   uint64

	// Telemetry handles (see Instrument). All nil by default, which is
	// the zero-cost disabled path: each site pays one nil check.
	slabGrown *obs.Counter
	cancelled *obs.Counter
	staleSeen *obs.Counter
	depthHW   *obs.Gauge
}

// Instrument wires the queue's telemetry to reg: counters
// eventq_slab_grown (slab slots allocated beyond the reserved
// capacity), eventq_cancelled (successful cancellations) and
// eventq_stale_handle (non-zero handles rejected by the generation
// check), plus the eventq_depth_highwater gauge. A nil reg resolves
// every handle to nil, keeping the disabled no-op path.
func (q *Queue) Instrument(reg *obs.Registry) {
	q.slabGrown = reg.Counter("eventq_slab_grown")
	q.cancelled = reg.Counter("eventq_cancelled")
	q.staleSeen = reg.Counter("eventq_stale_handle")
	q.depthHW = reg.Gauge("eventq_depth_highwater")
}

// Reserve grows the slab and heap capacity to hold at least n pending
// events without further allocation.
func (q *Queue) Reserve(n int) {
	if cap(q.slots) < n {
		slots := make([]slot, len(q.slots), n)
		copy(slots, q.slots)
		q.slots = slots
	}
	if cap(q.heap) < n {
		heap := make([]heapEntry, len(q.heap), n)
		copy(heap, q.heap)
		q.heap = heap
	}
}

// Schedule adds ev at virtual time at and returns a cancellation
// handle. Among equal timestamps, Schedule-assigned events pop in
// scheduling order, always after any ScheduleSequenced event at the
// same timestamp.
func (q *Queue) Schedule(at units.Seconds, ev Event) Handle {
	h := q.insert(at, SeqRuntimeBase+q.seq, ev)
	q.seq++
	return h
}

// ScheduleSequenced adds ev at virtual time at under a caller-assigned
// sequence number, which must lie below SeqRuntimeBase (it panics
// otherwise — the caller's band arithmetic is corrupt). Among equal
// timestamps, pre-sequenced events pop in seq order and before every
// Schedule-assigned event; the caller owns uniqueness of its seqs (the
// pop order of duplicates is unspecified). See SeqRuntimeBase for why
// the sharded simulator needs this.
func (q *Queue) ScheduleSequenced(at units.Seconds, seq uint64, ev Event) Handle {
	if seq >= SeqRuntimeBase {
		panic("eventq: ScheduleSequenced seq in the runtime band")
	}
	return q.insert(at, seq, ev)
}

// insert places an event with an explicit sort sequence.
func (q *Queue) insert(at units.Seconds, seq uint64, ev Event) Handle {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		idx = int32(len(q.slots))
		if len(q.slots) == cap(q.slots) {
			q.slabGrown.Inc()
		}
		q.slots = append(q.slots, slot{})
	}
	sl := &q.slots[idx]
	sl.at = at
	sl.seq = seq
	sl.ev = ev
	q.heap = append(q.heap, heapEntry{at: at, seq: seq, idx: idx})
	q.siftUp(len(q.heap) - 1)
	q.depthHW.SetMax(int64(len(q.heap)))
	return Handle{slot: idx + 1, gen: sl.gen}
}

// Valid reports whether h still refers to a pending event on this queue.
func (q *Queue) Valid(h Handle) bool {
	if h.slot == 0 || int(h.slot) > len(q.slots) {
		return false
	}
	sl := &q.slots[h.slot-1]
	return sl.gen == h.gen && sl.pos >= 0
}

// Cancel removes the event identified by h if it is still pending, and
// reports whether anything was removed. A stale handle — popped,
// already cancelled, or outlived by a reuse of its slot — is rejected
// by the generation check and cancels nothing.
func (q *Queue) Cancel(h Handle) bool {
	if !q.Valid(h) {
		// Only a non-zero handle counts as a stale-handle detection: the
		// zero Handle is the conventional "nothing scheduled" value and
		// cancelling it is not a bug signal.
		if h.slot != 0 {
			q.staleSeen.Inc()
		}
		return false
	}
	q.cancelled.Inc()
	idx := h.slot - 1
	pos := int(q.slots[idx].pos)
	q.release(idx)
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if pos == last {
		return true
	}
	q.heap[pos] = moved
	q.slots[moved.idx].pos = int32(pos)
	q.siftDown(pos)
	q.siftUp(int(q.slots[moved.idx].pos))
	return true
}

// Reschedule moves the pending event identified by h to a new
// timestamp and payload in place, under the sequence number a fresh
// Schedule call would have assigned — so the pop order is exactly that
// of Cancel(h) followed by Schedule(at, ev), at the cost of one sift
// instead of a remove-and-reinsert pair (the dominant heap traffic in
// the simulator, which replaces a server's completion event on every
// placement). The handle stays valid and is returned; a stale handle
// reschedules nothing and reports false, letting the caller fall back
// to Schedule. The replaced event counts as cancelled.
func (q *Queue) Reschedule(h Handle, at units.Seconds, ev Event) (Handle, bool) {
	if !q.Valid(h) {
		if h.slot != 0 {
			q.staleSeen.Inc()
		}
		return Handle{}, false
	}
	q.cancelled.Inc()
	idx := h.slot - 1
	sl := &q.slots[idx]
	sl.at = at
	sl.seq = SeqRuntimeBase + q.seq
	q.seq++
	sl.ev = ev
	he := &q.heap[sl.pos]
	he.at = at
	he.seq = sl.seq
	q.siftDown(int(sl.pos))
	q.siftUp(int(q.slots[idx].pos))
	return h, true
}

// Peek returns the timestamp of the earliest pending event without
// removing it. ok is false when the queue is empty.
func (q *Queue) Peek() (at units.Seconds, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes and returns the earliest pending event and its timestamp.
// ok is false when the queue is empty. Among equal timestamps, events
// pop in the order they were scheduled.
func (q *Queue) Pop() (at units.Seconds, ev Event, ok bool) {
	if len(q.heap) == 0 {
		return 0, Event{}, false
	}
	idx := q.heap[0].idx
	sl := &q.slots[idx]
	at, ev = sl.at, sl.ev
	q.release(idx)
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.heap[0] = moved
		q.slots[moved.idx].pos = 0
		q.siftDown(0)
	}
	return at, ev, true
}

// release frees a slab slot: the generation bump invalidates any
// outstanding handles before the slot is recycled.
func (q *Queue) release(idx int32) {
	sl := &q.slots[idx]
	sl.pos = -1
	sl.gen++
	q.free = append(q.free, idx)
}

// less orders heap entries by (timestamp, scheduling sequence).
func less(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(pos int) {
	e := q.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 4
		p := q.heap[parent]
		if !less(&e, &p) {
			break
		}
		q.heap[pos] = p
		q.slots[p.idx].pos = int32(pos)
		pos = parent
	}
	q.heap[pos] = e
	q.slots[e.idx].pos = int32(pos)
}

func (q *Queue) siftDown(pos int) {
	n := len(q.heap)
	e := q.heap[pos]
	for {
		first := 4*pos + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(&q.heap[c], &q.heap[best]) {
				best = c
			}
		}
		if !less(&q.heap[best], &e) {
			break
		}
		b := q.heap[best]
		q.heap[pos] = b
		q.slots[b.idx].pos = int32(pos)
		pos = best
	}
	q.heap[pos] = e
	q.slots[e.idx].pos = int32(pos)
}
