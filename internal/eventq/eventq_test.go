package eventq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"pacevm/internal/obs"
	"pacevm/internal/units"
)

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

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
	q.Init(4)
	q.Schedule(3, 3)
	q.Schedule(1, 1)
	q.Schedule(2, 2)
	for i, want := range []int{1, 2, 3} {
		at, key, ok := q.Pop()
		if !ok || key != want || at != units.Seconds(want) {
			t.Fatalf("pop %d = (%v,%v,%v), want (%v,%v,true)", i, at, key, ok, want, want)
		}
	}
}

func TestFIFOAmongTies(t *testing.T) {
	var q Queue
	q.Init(10)
	for i := 9; i >= 0; i-- {
		q.Schedule(i, 5)
	}
	for i := 9; i >= 0; i-- {
		_, key, ok := q.Pop()
		if !ok || key != i {
			t.Fatalf("tie pop = %v, want key %d", key, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue
	q.Init(1)
	q.Schedule(0, 7)
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
	q.Init(3)
	q.Schedule(1, 1)
	q.Schedule(2, 2)
	if !q.Remove(1) {
		t.Fatal("Remove of a pending key returned false")
	}
	if q.Remove(1) {
		t.Fatal("double Remove returned true")
	}
	if q.Remove(0) {
		t.Error("Remove of a never-scheduled key returned true")
	}
	if _, key, _ := q.Pop(); key != 2 {
		t.Fatalf("after remove popped key %d", key)
	}
}

func TestCancelMiddle(t *testing.T) {
	var q Queue
	q.Init(100)
	for i := 0; i < 100; i++ {
		q.Schedule(i, units.Seconds(i))
	}
	for i := 1; i < 100; i += 2 {
		if !q.Remove(i) {
			t.Fatalf("remove %d failed", i)
		}
	}
	for i := 0; i < 100; i += 2 {
		_, key, ok := q.Pop()
		if !ok || key != i {
			t.Fatalf("expected %d, got %v", i, key)
		}
	}
	if q.Len() != 0 {
		t.Errorf("queue not drained: %d left", q.Len())
	}
}

// TestCancelledSlotReuseKeepsOrdering schedules a key again after
// removing it, reusing the key's slot: the new event sorts by its own
// time, not the removed one's.
func TestCancelledSlotReuseKeepsOrdering(t *testing.T) {
	var q Queue
	q.Init(2)
	q.Schedule(0, 5)
	q.Schedule(1, 1)
	q.Remove(0)
	q.Schedule(0, 3)
	var got []int
	for {
		_, key, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, key)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("pop order %v, want [1 0]", got)
	}
}

// TestReserve pins that Init reserves room for every key: scheduling
// and draining up to the key count allocates nothing.
func TestReserve(t *testing.T) {
	var q Queue
	q.Init(1000)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			q.Schedule(i, units.Seconds(i))
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("initialized queue allocated %.0f times during churn", allocs)
	}
}

// TestPoppedKeyIsFree churns a key set through schedule/remove/pop
// rounds: a popped key is no longer pending (Remove reports false and
// counts nothing), and scheduling it again adds a fresh event — the
// simulator's pattern after every completion.
func TestPoppedKeyIsFree(t *testing.T) {
	var q Queue
	reg := obs.NewRegistry()
	q.Instrument(reg)
	q.Init(10)
	for round := 0; round < 50; round++ {
		for k := 0; k < 10; k++ {
			q.Schedule(k, units.Seconds(round*10+k))
		}
		for k := 0; k < 10; k += 2 {
			if !q.Remove(k) {
				t.Fatalf("round %d: remove of pending key %d failed", round, k)
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
		for k := 0; k < 10; k++ {
			if q.Remove(k) {
				t.Fatalf("round %d: popped key %d still pending", round, k)
			}
		}
	}
	if got := reg.Snapshot().Counters["eventq_cancelled"]; got != 50*5 {
		t.Errorf("eventq_cancelled = %d, want %d (removals only)", got, 50*5)
	}
}

// TestMoveEqualsRemoveThenSchedule drives two queues through the same
// pseudo-random schedule/pop stream: one moves pending keys in place,
// the other removes them first. Both must pop the same sequence, since
// a move takes the sequence number a fresh schedule would.
func TestMoveEqualsRemoveThenSchedule(t *testing.T) {
	const keys = 32
	r := lcg(11)
	var moved, fresh Queue
	moved.Init(keys)
	fresh.Init(keys)
	var now units.Seconds
	for i := 0; i < 5000; i++ {
		key := int(r.next() % keys)
		at := now + units.Seconds(r.next()%16)
		switch r.next() % 4 {
		case 0, 1:
			moved.Schedule(key, at)
			fresh.Remove(key)
			fresh.Schedule(key, at)
		case 2:
			seq := uint64(i)
			moved.ScheduleSequenced(key, at, seq)
			fresh.Remove(key)
			fresh.ScheduleSequenced(key, at, seq)
		case 3:
			at1, k1, ok1 := moved.Pop()
			at2, k2, ok2 := fresh.Pop()
			if at1 != at2 || k1 != k2 || ok1 != ok2 {
				t.Fatalf("op %d: move pops (%v,%d,%v), remove+schedule pops (%v,%d,%v)", i, at1, k1, ok1, at2, k2, ok2)
			}
			if ok1 {
				now = at1
			}
		}
	}
}

func TestPopSortedProperty(t *testing.T) {
	f := func(times []float64) bool {
		var q Queue
		q.Init(len(times))
		var clean []float64
		for _, ts := range times {
			if math.IsNaN(ts) || math.IsInf(ts, 0) {
				continue
			}
			ts = math.Mod(ts, 1e9)
			q.Schedule(len(clean), units.Seconds(ts))
			clean = append(clean, ts)
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
		sort.Float64s(clean)
		for i := range clean {
			if popped[i] != clean[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCancelRandomizedHeapIntegrity interleaves schedules, moves and
// removals and checks the popped sequence equals the sorted surviving
// set — an oracle over the 4-ary heap's arbitrary-position updates.
func TestCancelRandomizedHeapIntegrity(t *testing.T) {
	const keys = 64
	f := func(ops []uint16) bool {
		var q Queue
		q.Init(keys)
		pending := map[int]float64{}
		for _, op := range ops {
			key := int(op>>2) % keys
			switch op % 3 {
			case 0, 1: // schedule or move (biased: queues mostly grow)
				at := float64(op) / 7
				q.Schedule(key, units.Seconds(at))
				pending[key] = at
			case 2:
				_, ok := pending[key]
				if q.Remove(key) != ok {
					return false
				}
				delete(pending, key)
			}
		}
		var want []float64
		for _, at := range pending {
			want = append(want, at)
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
	q.Init(3)
	q.Schedule(2, 10)
	q.Schedule(0, 1)
	at, key, _ := q.Pop()
	if key != 0 || at != 1 {
		t.Fatalf("got key %d at %v", key, at)
	}
	q.Schedule(1, 5)
	if _, key, _ = q.Pop(); key != 1 {
		t.Fatalf("got key %d", key)
	}
	if _, key, _ = q.Pop(); key != 2 {
		t.Fatalf("got key %d", key)
	}
}

// BenchmarkQueueChurn measures the steady-state pop/schedule cycle the
// simulator event loop drives (one completion rescheduled per pop).
func BenchmarkQueueChurn(b *testing.B) {
	var q Queue
	q.Init(1024)
	for i := 0; i < 1024; i++ {
		q.Schedule(i, units.Seconds(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, key, _ := q.Pop()
		q.Schedule(key, at+1024)
	}
}

// BenchmarkQueueCancel measures replacing a key's pending event with a
// later one, the pattern every server-state change triggers (each
// replacement counts in eventq_cancelled).
func BenchmarkQueueCancel(b *testing.B) {
	var q Queue
	q.Init(1024)
	for i := 0; i < 1024; i++ {
		q.Schedule(i, units.Seconds(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(i%1024, units.Seconds(i+1024))
	}
}

// TestInstrumentedCounters exercises every telemetry hook against a live
// registry: the depth high-water gauge and eventq_cancelled, which
// counts moved and removed pending events and nothing else.
func TestInstrumentedCounters(t *testing.T) {
	var q Queue
	reg := obs.NewRegistry()
	q.Instrument(reg)
	q.Init(16)

	for i := 0; i < 8; i++ {
		q.Schedule(i, units.Seconds(i))
	}
	q.Schedule(2, 20) // a move: replaces key 2's event, depth unchanged
	if !q.Remove(3) {
		t.Fatal("remove of a pending key failed")
	}
	if q.Remove(3) {
		t.Fatal("double remove succeeded")
	}
	if _, key, _ := q.Pop(); key != 0 {
		t.Fatalf("popped key %d, want 0", key)
	}
	if q.Remove(0) {
		t.Fatal("remove of a popped key succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["eventq_depth_highwater"]; got != 8 {
		t.Errorf("depth high-water = %d, want 8", got)
	}
	if got := snap.Counters["eventq_cancelled"]; got != 2 {
		t.Errorf("eventq_cancelled = %d, want 2 (one move, one removal)", got)
	}

	for {
		if _, _, ok := q.Pop(); !ok {
			break
		}
	}
	for i := 0; i < 10; i++ {
		q.Schedule(i, units.Seconds(i))
	}
	q.ScheduleSequenced(4, 1, 0) // a sequenced move counts too
	snap = reg.Snapshot()
	if got := snap.Gauges["eventq_depth_highwater"]; got != 10 {
		t.Errorf("depth high-water after refill = %d, want 10", got)
	}
	if got := snap.Counters["eventq_cancelled"]; got != 3 {
		t.Errorf("eventq_cancelled after a sequenced move = %d, want 3", got)
	}
	for _, name := range []string{"eventq_stale_handle", "eventq_slab_grown"} {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("%s is registered", name)
		}
	}
}

// TestUninstrumentedQueueAllocFree pins the zero-cost contract at the
// queue level: a full schedule/move/remove/pop cycle on an
// uninstrumented queue performs no allocations after Init.
func TestUninstrumentedQueueAllocFree(t *testing.T) {
	var q Queue
	q.Init(64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.Schedule(i, units.Seconds(i%7))
		}
		for i := 0; i < 64; i += 3 {
			q.Remove(i)
		}
		for i := 1; i < 64; i += 5 {
			q.Schedule(i, units.Seconds(i%11))
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

// FuzzQueue runs a byte-coded stream of schedule, sequenced-schedule,
// remove and pop operations against a map of pending events (a pop
// must return its (time, sequence) minimum), checking
// every pop, every Remove result and the telemetry totals.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 1, 1, 0, 3, 3, 3, 2, 1, 2})
	f.Add([]byte{4, 0, 4, 8, 0, 4, 1, 0, 2, 1, 4, 5, 3, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const keys = 8
		type pend struct {
			at  units.Seconds
			seq uint64
		}
		var q Queue
		reg := obs.NewRegistry()
		q.Instrument(reg)
		q.Init(keys)
		oracle := map[int]pend{}
		var runtime, pre uint64
		var cancelled, highwater int64
		for i := 0; i+1 < len(ops); i += 2 {
			key := int(ops[i]>>2) % keys
			at := units.Seconds(ops[i+1] % 16)
			_, pending := oracle[key]
			switch ops[i] % 4 {
			case 0:
				q.Schedule(key, at)
				oracle[key] = pend{at, SeqRuntimeBase + runtime}
				runtime++
			case 1:
				q.ScheduleSequenced(key, at, pre)
				oracle[key] = pend{at, pre}
				pre++
			case 2:
				if q.Remove(key) != pending {
					t.Fatalf("op %d: Remove(%d) disagrees with pending=%v", i, key, pending)
				}
				delete(oracle, key)
			case 3:
				want, best := -1, pend{}
				for k, p := range oracle {
					if want < 0 || p.at < best.at || p.at == best.at && p.seq < best.seq {
						want, best = k, p
					}
				}
				pat, pok := q.Peek()
				at, got, ok := q.Pop()
				if ok != (want >= 0) || pok != ok || pat != at {
					t.Fatalf("op %d: Pop ok=%v Peek ok=%v, oracle holds %d", i, ok, pok, len(oracle))
				}
				if ok && (got != want || at != best.at) {
					t.Fatalf("op %d: popped key %d at %v, oracle key %d at %v", i, got, at, want, best.at)
				}
				delete(oracle, want)
				continue
			}
			if pending { // a move or a removal
				cancelled++
			}
			if n := int64(len(oracle)); n > highwater {
				highwater = n
			}
		}
		if q.Len() != len(oracle) {
			t.Fatalf("queue holds %d events, oracle %d", q.Len(), len(oracle))
		}
		snap := reg.Snapshot()
		if got := snap.Counters["eventq_cancelled"]; got != cancelled {
			t.Errorf("eventq_cancelled = %d, oracle %d", got, cancelled)
		}
		if got := snap.Gauges["eventq_depth_highwater"]; got != highwater {
			t.Errorf("eventq_depth_highwater = %d, oracle %d", got, highwater)
		}
	})
}
