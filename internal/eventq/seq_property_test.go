package eventq

// Property tests for the sequence-band contract the sharded simulator
// leans on: pre-sequenced events (the cross-shard admission bands below
// SeqRuntimeBase) and Schedule-assigned runtime events interleave on one
// queue, pushed in adversarial order and windowed batches, yet always
// pop in global (time, sequence) order — with moves and removals of
// pending keys racing the interleave.

import (
	"sort"
	"testing"

	"pacevm/internal/units"
)

// lcg is a tiny deterministic generator so the adversarial interleave is
// reproducible without seeding the global rng.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 11)
}

// seqEvent is the oracle's record of one scheduled event.
type seqEvent struct {
	at  units.Seconds
	seq uint64
	key int
}

// sortBySeq orders events by (time, sequence), the queue's pop order.
func sortBySeq(es []seqEvent) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].at != es[j].at {
			return es[i].at < es[j].at
		}
		return es[i].seq < es[j].seq
	})
}

// TestSequencedBandsPopInGlobalOrder drives three bands — arrival-band
// and fault-band seqs assigned up front but *pushed* in shuffled
// windowed batches, runtime seqs assigned by Schedule as the pops
// proceed — while pops move and remove pending keys, and checks the pop
// stream equals the (time, seq) sort of every event's final state, no
// matter when each event reached the queue.
func TestSequencedBandsPopInGlobalOrder(t *testing.T) {
	const (
		arrivalBand = uint64(0)
		faultBand   = uint64(1) << 40
		nPre        = 600
		window      = units.Seconds(50)
	)
	r := lcg(7)
	var q Queue
	q.Init(2 * nPre)

	// events[key] is the final state of every event ever scheduled. Keys
	// below nPre are pre-sequenced: seqs numbered in timestamp order (as
	// a windowed router assigns them), then shuffled so push order is
	// adversarial.
	events := make([]seqEvent, 0, 2*nPre)
	at := units.Seconds(0)
	for i := 0; i < nPre; i++ {
		at += units.Seconds(r.next() % 7) // frequent timestamp ties
		band := arrivalBand
		if i%3 == 0 {
			band = faultBand
		}
		events = append(events, seqEvent{at: at, seq: band + uint64(i), key: i})
	}
	horizon := at + window
	order := make([]int, nPre)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}

	// Window-by-window lazy admission of the shuffled pre-sequenced
	// stream, with pops interleaved. Pops spawn runtime events (as
	// completions do), move pending runtime events to later instants
	// (as a placement reprices a server) and remove pending events of
	// either band; the oracle tracks each key's final state. Admission
	// is conservative, as a windowed coordinator's is: everything due
	// before a window's limit is pushed before that window pops, and a
	// random sprinkle of future events is pushed early (harmless — only
	// late admission could reorder).
	runtimeSeq := SeqRuntimeBase
	admitted := make([]bool, nPre)
	done := make([]bool, 2*nPre) // popped or removed
	var runtime []int            // pending runtime keys
	remaining := nPre
	var popped []seqEvent
	for limit := window; ; limit += window {
		for _, k := range order {
			if admitted[k] {
				continue
			}
			if e := events[k]; e.at < limit || r.next()%4 == 0 {
				q.ScheduleSequenced(k, e.at, e.seq)
				admitted[k] = true
				remaining--
			}
		}
		for {
			pat, ok := q.Peek()
			if !ok || pat >= limit {
				break
			}
			pat2, key, _ := q.Pop()
			if pat2 != pat {
				t.Fatalf("Pop returned %v after Peek %v", pat2, pat)
			}
			popped = append(popped, seqEvent{at: pat2, key: key})
			done[key] = true
			for i, k := range runtime {
				if k == key {
					runtime = append(runtime[:i], runtime[i+1:]...)
					break
				}
			}
			switch n := len(popped); {
			case n%3 == 0:
				fat := pat2 + units.Seconds(r.next()%40)
				if k := len(events); fat < horizon+window && k < 2*nPre {
					q.Schedule(k, fat)
					events = append(events, seqEvent{at: fat, seq: runtimeSeq, key: k})
					runtimeSeq++
					runtime = append(runtime, k)
				}
			case n%5 == 0 && len(runtime) > 0:
				k := runtime[r.next()%uint64(len(runtime))]
				fat := pat2 + units.Seconds(r.next()%40)
				q.Schedule(k, fat)
				events[k].at, events[k].seq = fat, runtimeSeq
				runtimeSeq++
			case n%7 == 0:
				k := int(r.next() % uint64(len(events)))
				pending := (k >= nPre || admitted[k]) && !done[k]
				if q.Remove(k) != pending {
					t.Fatalf("Remove(%d) disagrees with pending=%v", k, pending)
				}
				if pending {
					done[k] = true
					events[k].seq = ^uint64(0) // marks a removal for the oracle
					for i, rk := range runtime {
						if rk == k {
							runtime = append(runtime[:i], runtime[i+1:]...)
							break
						}
					}
				}
			}
		}
		if remaining == 0 && q.Len() == 0 {
			break
		}
	}

	var oracle []seqEvent
	for _, e := range events {
		if e.seq != ^uint64(0) {
			oracle = append(oracle, e)
		}
	}
	sortBySeq(oracle)
	if len(popped) != len(oracle) {
		t.Fatalf("popped %d events, oracle holds %d", len(popped), len(oracle))
	}
	for i := range oracle {
		if popped[i].key != oracle[i].key || popped[i].at != oracle[i].at {
			t.Fatalf("pop %d = (t=%v, key=%d), oracle (t=%v, seq=%d, key=%d)",
				i, popped[i].at, popped[i].key, oracle[i].at, oracle[i].seq, oracle[i].key)
		}
	}
}

// TestSequencedRemoveAndMove interleaves band-scheduled and runtime
// events, moves and removes a deterministic subset, and checks (a)
// survivors pop in (time, seq) order, with a sequenced move keeping its
// seq and a runtime move taking a fresh one, (b) removing twice fails
// the second time, and (c) once drained, every key is free again.
func TestSequencedRemoveAndMove(t *testing.T) {
	const n = 400
	r := lcg(23)
	var q Queue
	q.Init(n)
	events := make([]seqEvent, n)
	schedule := func(k int, at units.Seconds) {
		if k%2 == 0 {
			events[k] = seqEvent{at: at, seq: uint64(k), key: k}
			q.ScheduleSequenced(k, at, uint64(k))
		} else {
			events[k] = seqEvent{at: at, seq: SeqRuntimeBase + q.seq, key: k}
			q.Schedule(k, at)
		}
	}
	for k := 0; k < n; k++ {
		schedule(k, units.Seconds(r.next()%500))
	}
	var want []seqEvent
	for k := 0; k < n; k++ {
		switch r.next() % 4 {
		case 0:
			if !q.Remove(k) {
				t.Fatalf("remove %d failed on a pending key", k)
			}
			if q.Remove(k) {
				t.Fatalf("double remove %d succeeded", k)
			}
			continue
		case 1:
			schedule(k, units.Seconds(r.next()%500))
		}
		want = append(want, events[k])
	}
	sortBySeq(want)
	for i, w := range want {
		at, key, ok := q.Pop()
		if !ok {
			t.Fatalf("queue dry after %d pops, want %d", i, len(want))
		}
		if at != w.at || key != w.key {
			t.Fatalf("pop %d = (t=%v, key=%d), want (t=%v, key=%d)", i, at, key, w.at, w.key)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("queue still has events past the oracle")
	}
	for k := 0; k < n; k++ {
		if q.Remove(k) {
			t.Fatalf("key %d still pending after the drain", k)
		}
		q.Schedule(k, units.Seconds(k))
	}
	if q.Len() != n {
		t.Fatalf("rescheduling every freed key left %d events, want %d", q.Len(), n)
	}
}

// TestSequencedBandBoundary pins the band contract itself: at one
// timestamp, arrival-band beats fault-band beats runtime, and a seq at
// SeqRuntimeBase is rejected by ScheduleSequenced.
func TestSequencedBandBoundary(t *testing.T) {
	var q Queue
	q.Init(3)
	const at = units.Seconds(10)
	q.Schedule(2, at)                         // runtime band
	q.ScheduleSequenced(1, at, uint64(1)<<40) // fault band
	q.ScheduleSequenced(0, at, 0)             // arrival band
	for want := 0; want <= 2; want++ {
		_, key, ok := q.Pop()
		if !ok || key != want {
			t.Fatalf("pop = (%d, %t), want key %d", key, ok, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ScheduleSequenced accepted a runtime-band seq")
		}
	}()
	q.ScheduleSequenced(0, at, SeqRuntimeBase)
}
