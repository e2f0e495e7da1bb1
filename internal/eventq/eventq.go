// Package eventq implements the future-event list used by the PACE-VM
// discrete-event simulators: a 4-ary min-heap of timestamped events over
// a fixed key space, holding at most one pending event per key, with
// stable FIFO ordering among simultaneous events.
//
// Stable ordering matters for reproducibility: when a job arrival and a
// job completion carry the same timestamp the simulator must process
// them in a deterministic order, otherwise placement decisions (and
// therefore every downstream metric) vary between runs.
//
// Keys fit the simulator's event mix: a server owns at most one pending
// completion (a change to its resident set replaces it), and each fault
// entry owns one crash and one recovery. Scheduling a key that is
// already pending moves its event in place, so the caller keeps no
// handle. The queue is allocation-free after Init: the heap can never
// hold more than one entry per key. The 4-ary layout halves the tree
// depth of a binary heap and keeps sift-down children on one cache line.
package eventq

import (
	"pacevm/internal/obs"
	"pacevm/internal/units"
)

// SeqRuntimeBase is the first sequence number Schedule assigns. The
// space below it is reserved for ScheduleSequenced: the simulator
// pre-assigns each fault entry's crash/recover pair a sequence in that
// band, so a pre-sequenced event at time t always pops before any
// Schedule-assigned event at the same t — exactly the order a
// simulator that schedules its whole fault schedule up front would
// produce, independent of when the sharded engine admits the pair.
const SeqRuntimeBase uint64 = 1 << 41

// entry is one pending event: its sort key and the key it belongs to.
type entry struct {
	at  units.Seconds
	seq uint64
	key int32
}

// Queue is a future-event list over the keys [0, n) given to Init. The
// zero value is an empty queue that holds no keys. Queue is not safe
// for concurrent use; the simulators are single-threaded per
// replication and parallelize across replications.
type Queue struct {
	heap []entry // 4-ary min-heap, min at heap[0]
	pos  []int32 // heap index of each key's pending event; -1 when none
	seq  uint64

	// Telemetry handles (see Instrument). Both nil by default, which is
	// the zero-cost disabled path: each site pays one nil check.
	cancelled *obs.Counter
	depthHW   *obs.Gauge
}

// Init empties the queue and sizes it for the keys [0, n).
func (q *Queue) Init(n int) {
	q.heap = make([]entry, 0, n)
	q.pos = make([]int32, n)
	for i := range q.pos {
		q.pos[i] = -1
	}
	q.seq = 0
}

// Instrument wires the queue's telemetry to reg: the eventq_cancelled
// counter (pending events replaced or removed) and the
// eventq_depth_highwater gauge. A nil reg resolves both handles to nil,
// keeping the disabled no-op path.
func (q *Queue) Instrument(reg *obs.Registry) {
	q.cancelled = reg.Counter("eventq_cancelled")
	q.depthHW = reg.Gauge("eventq_depth_highwater")
}

// Schedule sets key's event to virtual time at under a fresh runtime
// sequence number, moving the key's pending event if it has one. Among
// equal timestamps, Schedule-assigned events pop in scheduling order,
// always after any ScheduleSequenced event at the same timestamp.
func (q *Queue) Schedule(key int, at units.Seconds) {
	q.set(key, at, SeqRuntimeBase+q.seq)
	q.seq++
}

// ScheduleSequenced sets key's event to virtual time at under a
// caller-assigned sequence number, which must lie below SeqRuntimeBase
// (it panics otherwise — the caller's band arithmetic is corrupt).
// Among equal timestamps, pre-sequenced events pop in seq order and
// before every Schedule-assigned event; the caller owns uniqueness of
// its seqs (the pop order of duplicates is unspecified).
func (q *Queue) ScheduleSequenced(key int, at units.Seconds, seq uint64) {
	if seq >= SeqRuntimeBase {
		panic("eventq: ScheduleSequenced seq in the runtime band")
	}
	q.set(key, at, seq)
}

// set gives key the sort key (at, seq): a pending event moves in place
// (one sift instead of a remove-and-reinsert pair) and counts as
// cancelled, otherwise a new entry joins the heap.
func (q *Queue) set(key int, at units.Seconds, seq uint64) {
	if p := q.pos[key]; p >= 0 {
		q.cancelled.Inc()
		q.heap[p].at, q.heap[p].seq = at, seq
		q.fix(int(p))
		return
	}
	q.heap = append(q.heap, entry{at: at, seq: seq, key: int32(key)})
	q.siftUp(len(q.heap) - 1)
	q.depthHW.SetMax(int64(len(q.heap)))
}

// Remove drops key's pending event and reports whether it had one.
func (q *Queue) Remove(key int) bool {
	p := q.pos[key]
	if p < 0 {
		return false
	}
	q.cancelled.Inc()
	q.removeAt(int(p))
	return true
}

// Peek returns the timestamp of the earliest pending event without
// removing it. ok is false when the queue is empty.
func (q *Queue) Peek() (at units.Seconds, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// Pop removes the earliest pending event and returns its timestamp and
// key. ok is false when the queue is empty.
func (q *Queue) Pop() (at units.Seconds, key int, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	e := q.heap[0]
	q.removeAt(0)
	return e.at, int(e.key), true
}

// removeAt deletes the heap entry at index p, filling the hole with the
// last entry.
func (q *Queue) removeAt(p int) {
	q.pos[q.heap[p].key] = -1
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if p == last {
		return
	}
	q.heap[p] = moved
	q.pos[moved.key] = int32(p)
	q.fix(p)
}

// fix restores the heap order around index p after its entry changed.
func (q *Queue) fix(p int) {
	key := q.heap[p].key
	q.siftDown(p)
	q.siftUp(int(q.pos[key]))
}

// less orders heap entries by (timestamp, scheduling sequence).
func less(a, b *entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(p int) {
	e := q.heap[p]
	for p > 0 {
		parent := (p - 1) / 4
		pe := q.heap[parent]
		if !less(&e, &pe) {
			break
		}
		q.heap[p] = pe
		q.pos[pe.key] = int32(p)
		p = parent
	}
	q.heap[p] = e
	q.pos[e.key] = int32(p)
}

func (q *Queue) siftDown(p int) {
	n := len(q.heap)
	e := q.heap[p]
	for {
		first := 4*p + 1
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
		q.heap[p] = b
		q.pos[b.key] = int32(p)
		p = best
	}
	q.heap[p] = e
	q.pos[e.key] = int32(p)
}
