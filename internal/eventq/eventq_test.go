package eventq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pacevm/internal/obs"
	"pacevm/internal/units"
)

// Event kinds used by the tests; the queue itself never interprets them.
const (
	kindA Kind = iota
	kindB
)

func ev(arg int) Event { return Event{Kind: kindA, Arg: int32(arg)} }

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Errorf("zero queue Len = %d", q.Len())
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek on empty queue reported ok")
	}
	if _, _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue reported ok")
	}
}

func TestOrdering(t *testing.T) {
	var q Queue
	q.Schedule(3, ev(3))
	q.Schedule(1, ev(1))
	q.Schedule(2, ev(2))
	for i, want := range []int32{1, 2, 3} {
		at, e, ok := q.Pop()
		if !ok || e.Arg != want || at != units.Seconds(want) {
			t.Fatalf("pop %d = (%v,%v,%v), want (%v,%v,true)", i, at, e, ok, want, want)
		}
	}
}

func TestFIFOAmongTies(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Schedule(5, ev(i))
	}
	for i := 0; i < 10; i++ {
		_, e, ok := q.Pop()
		if !ok || int(e.Arg) != i {
			t.Fatalf("tie pop %d = %v", i, e)
		}
	}
}

func TestKindRoundTrips(t *testing.T) {
	var q Queue
	q.Schedule(1, Event{Kind: kindB, Arg: 7})
	_, e, ok := q.Pop()
	if !ok || e.Kind != kindB || e.Arg != 7 {
		t.Fatalf("popped %+v", e)
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Schedule(7, ev(0))
	at, ok := q.Peek()
	if !ok || at != 7 {
		t.Fatalf("Peek = %v,%v", at, ok)
	}
	if q.Len() != 1 {
		t.Error("Peek removed the event")
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	h1 := q.Schedule(1, ev(1))
	q.Schedule(2, ev(2))
	if !q.Cancel(h1) {
		t.Fatal("Cancel of pending event returned false")
	}
	if q.Cancel(h1) {
		t.Fatal("double Cancel returned true")
	}
	_, e, _ := q.Pop()
	if e.Arg != 2 {
		t.Fatalf("after cancel popped %v", e)
	}
	if q.Cancel(Handle{}) {
		t.Error("Cancel of zero handle returned true")
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	var handles []Handle
	for i := 0; i < 100; i++ {
		handles = append(handles, q.Schedule(units.Seconds(i), ev(i)))
	}
	// Cancel all odd events.
	for i := 1; i < 100; i += 2 {
		if !q.Cancel(handles[i]) {
			t.Fatalf("cancel %d failed", i)
		}
	}
	for i := 0; i < 100; i += 2 {
		_, e, ok := q.Pop()
		if !ok || int(e.Arg) != i {
			t.Fatalf("expected %d, got %v", i, e)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d left", q.Len())
	}
}

func TestHandleValidLifecycle(t *testing.T) {
	var q Queue
	h := q.Schedule(1, ev(0))
	if !q.Valid(h) {
		t.Error("fresh handle invalid")
	}
	q.Pop()
	if q.Valid(h) {
		t.Error("handle still valid after pop")
	}
	if q.Valid(Handle{}) {
		t.Error("zero handle valid")
	}
}

// TestStaleHandleAfterSlotReuse is the regression the slab rewrite must
// hold: popping an event frees its slot for reuse, and a handle to the
// popped event must NOT cancel (or report valid for) whatever event
// later lands in the same slot.
func TestStaleHandleAfterSlotReuse(t *testing.T) {
	var q Queue
	hA := q.Schedule(1, ev(100))
	if _, e, ok := q.Pop(); !ok || e.Arg != 100 {
		t.Fatalf("popped %v", e)
	}
	// B reuses A's slab slot (single-slot slab at this point).
	hB := q.Schedule(2, ev(200))
	if q.Valid(hA) {
		t.Error("stale handle reports valid after slot reuse")
	}
	if q.Cancel(hA) {
		t.Fatal("stale handle cancelled a different event")
	}
	if q.Len() != 1 {
		t.Fatalf("B was lost: Len = %d", q.Len())
	}
	if !q.Cancel(hB) {
		t.Error("fresh handle to the reused slot failed to cancel")
	}
}

// TestStaleHandlesAcrossManyPops churns the slab through many
// schedule/pop cycles and checks every retired handle stays dead while
// every live one works exactly once.
func TestStaleHandlesAcrossManyPops(t *testing.T) {
	var q Queue
	var dead []Handle
	for round := 0; round < 50; round++ {
		live := make([]Handle, 10)
		for i := range live {
			live[i] = q.Schedule(units.Seconds(round*10+i), ev(round*10+i))
		}
		// Cancel half, pop the rest.
		for i, h := range live {
			if i%2 == 0 {
				if !q.Cancel(h) {
					t.Fatalf("round %d: cancel of live handle %d failed", round, i)
				}
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
		dead = append(dead, live...)
		for _, h := range dead {
			if q.Valid(h) || q.Cancel(h) {
				t.Fatalf("round %d: retired handle came back to life", round)
			}
		}
	}
}

func TestCancelledSlotReuseKeepsOrdering(t *testing.T) {
	var q Queue
	h := q.Schedule(5, ev(1))
	q.Schedule(1, ev(2))
	q.Cancel(h)
	q.Schedule(3, ev(3)) // reuses the cancelled slot
	var got []int32
	for {
		_, e, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, e.Arg)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("pop order %v, want [2 3]", got)
	}
}

func TestReserve(t *testing.T) {
	var q Queue
	q.Reserve(1000)
	allocsStart := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			q.Schedule(units.Seconds(i), ev(i))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocsStart > 3 {
		t.Errorf("reserved queue allocated %.0f times during churn", allocsStart)
	}
}

func TestPopSortedProperty(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		var clean []float64
		for _, ts := range times {
			if math.IsNaN(ts) || math.IsInf(ts, 0) {
				continue
			}
			ts = math.Mod(ts, 1e9)
			clean = append(clean, ts)
			q.Schedule(units.Seconds(ts), ev(len(clean)-1))
		}
		var popped []float64
		for {
			at, _, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, float64(at))
		}
		if len(popped) != len(clean) {
			return false
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		for i := range sorted {
			if popped[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCancelRandomizedHeapIntegrity interleaves schedules, cancels and
// pops and checks the popped sequence equals the sorted surviving set —
// an oracle over the 4-ary heap's arbitrary-position removal.
func TestCancelRandomizedHeapIntegrity(t *testing.T) {
	f := func(ops []uint16) bool {
		var q Queue
		type pending struct {
			h  Handle
			at float64
		}
		var live []pending
		var want []float64
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0, 1: // schedule (biased: queues mostly grow)
				at := float64(op) / 7
				live = append(live, pending{q.Schedule(units.Seconds(at), ev(next)), at})
				next++
			case 2: // cancel a pseudo-random live event
				if len(live) == 0 {
					continue
				}
				i := int(op) % len(live)
				if !q.Cancel(live[i].h) {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, p := range live {
			want = append(want, p.at)
		}
		sort.Float64s(want)
		for i := 0; ; i++ {
			at, _, ok := q.Pop()
			if !ok {
				return i == len(want)
			}
			if i >= len(want) || float64(at) != want[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedScheduleAndPop(t *testing.T) {
	var q Queue
	q.Schedule(10, ev(10))
	q.Schedule(1, ev(1))
	at, e, _ := q.Pop()
	if e.Arg != 1 || at != 1 {
		t.Fatalf("got %v at %v", e, at)
	}
	q.Schedule(5, ev(5))
	_, e, _ = q.Pop()
	if e.Arg != 5 {
		t.Fatalf("got %v", e)
	}
	_, e, _ = q.Pop()
	if e.Arg != 10 {
		t.Fatalf("got %v", e)
	}
}

// BenchmarkQueueChurn measures the steady-state schedule/pop cycle the
// simulator event loop drives (one completion rescheduled per pop).
func BenchmarkQueueChurn(b *testing.B) {
	var q Queue
	q.Reserve(1024)
	for i := 0; i < 1024; i++ {
		q.Schedule(units.Seconds(i), ev(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, e, _ := q.Pop()
		q.Schedule(at+1024, e)
	}
}

// BenchmarkQueueCancel measures cancel+reschedule, the pattern every
// server-state change triggers.
func BenchmarkQueueCancel(b *testing.B) {
	var q Queue
	q.Reserve(1024)
	handles := make([]Handle, 1024)
	for i := range handles {
		handles[i] = q.Schedule(units.Seconds(i), ev(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % 1024
		q.Cancel(handles[j])
		handles[j] = q.Schedule(units.Seconds(i+1024), ev(j))
	}
}

// TestInstrumentedCounters exercises every telemetry hook against a live
// registry: slab growth past the reserved capacity, the depth high-water
// gauge, successful cancellations, and stale-handle detections (with the
// zero Handle explicitly exempt).
func TestInstrumentedCounters(t *testing.T) {
	var q Queue
	reg := obs.NewRegistry()
	q.Instrument(reg)
	q.Reserve(4)

	handles := make([]Handle, 0, 8)
	for i := 0; i < 8; i++ {
		handles = append(handles, q.Schedule(units.Seconds(i), ev(i)))
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["eventq_depth_highwater"]; got != 8 {
		t.Errorf("depth high-water = %d, want 8", got)
	}
	if got := snap.Counters["eventq_slab_grown"]; got == 0 {
		t.Error("scheduling past Reserve(4) did not count slab growth")
	}
	grownAt8 := snap.Counters["eventq_slab_grown"]

	if !q.Cancel(handles[3]) {
		t.Fatal("cancel of a pending event failed")
	}
	if q.Cancel(handles[3]) {
		t.Fatal("double cancel succeeded")
	}
	if q.Cancel(Handle{}) {
		t.Fatal("zero handle cancelled something")
	}
	q.Pop()
	if q.Cancel(handles[0]) {
		t.Fatal("cancel of a popped event succeeded")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["eventq_cancelled"]; got != 1 {
		t.Errorf("eventq_cancelled = %d, want 1", got)
	}
	// Two stale detections (double cancel + popped handle); the zero
	// Handle is the conventional "nothing scheduled" value, not a bug.
	if got := snap.Counters["eventq_stale_handle"]; got != 2 {
		t.Errorf("eventq_stale_handle = %d, want 2", got)
	}

	// Draining and refilling within the grown slab reuses free slots:
	// no further growth, but the high-water keeps ratcheting.
	for {
		if _, _, ok := q.Pop(); !ok {
			break
		}
	}
	for i := 0; i < 10; i++ {
		q.Schedule(units.Seconds(i), ev(i))
	}
	snap = reg.Snapshot()
	if got := snap.Gauges["eventq_depth_highwater"]; got != 10 {
		t.Errorf("depth high-water after refill = %d, want 10", got)
	}
	// 8 of the 10 events reuse freed slots; the 9th slot allocation hits
	// the full slab once and grows it, the 10th fits the doubled slab.
	if got := snap.Counters["eventq_slab_grown"]; got != grownAt8+1 {
		t.Errorf("slab growth = %d, want %d (one regrowth past the 8-slot slab)", got, grownAt8+1)
	}
}

// TestUninstrumentedQueueIsNoOp pins the zero-cost contract at the queue
// level: a full schedule/cancel/pop cycle on an uninstrumented queue
// with pre-reserved capacity performs no allocations.
func TestUninstrumentedQueueAllocFree(t *testing.T) {
	var q Queue
	q.Reserve(64)
	allocs := testing.AllocsPerRun(100, func() {
		var hs [64]Handle
		for i := 0; i < 64; i++ {
			hs[i] = q.Schedule(units.Seconds(i%7), ev(i))
		}
		for i := 0; i < 64; i += 3 {
			q.Cancel(hs[i])
		}
		for {
			if _, _, ok := q.Pop(); !ok {
				return
			}
		}
	})
	if allocs != 0 {
		t.Errorf("uninstrumented queue cycle allocates %.1f/run, want 0", allocs)
	}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }
