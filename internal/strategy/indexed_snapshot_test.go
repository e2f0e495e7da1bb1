package strategy

import (
	"reflect"
	"sync"
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/rng"
	"pacevm/internal/workload"
)

// TestIndexSnapshotRoundTrip pins the snapshot/restore contract on a
// busy index: a restored index must pass the capacity-audit watchdog
// check (AuditInvariants against the snapshot's own occupancies) and
// must answer FirstBelow/FreeSlotsBelow byte-for-byte like the source.
func TestIndexSnapshotRoundTrip(t *testing.T) {
	const n, maxOcc = 97, 16
	f := NewFleetIndex(n, maxOcc)
	r := rng.New(7)
	down := make([]bool, n)
	for step := 0; step < 5000; step++ {
		i := r.Intn(n)
		switch {
		case step%7 == 3 && !down[i]:
			f.SetDown(i)
			down[i] = true
		case step%7 == 5 && down[i]:
			f.SetUp(i)
			down[i] = false
		case f.Used(i) > 0 && step%3 == 0:
			f.Add(i, workload.ClassCPU, -1)
		case f.Used(i) < maxOcc+3: // overfill a few past the ceiling
			f.Add(i, workload.ClassCPU, 1)
		}
	}

	snap := f.Snapshot()
	g, err := RestoreIndex(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AuditInvariants(func(i int) model.Key { return snap.Alloc[i] }); err != nil {
		t.Fatalf("restored index fails the capacity audit: %v", err)
	}
	if !reflect.DeepEqual(g.Snapshot(), snap) {
		t.Fatal("restore→snapshot is not byte-for-byte the original snapshot")
	}
	for cap := 1; cap <= maxOcc+4; cap++ {
		if a, b := f.FreeSlotsBelow(cap), g.FreeSlotsBelow(cap); a != b {
			t.Fatalf("FreeSlotsBelow(%d): source %d, restored %d", cap, a, b)
		}
		for from := -1; from < n+1; from += 7 {
			if a, b := f.FirstBelow(cap, from), g.FirstBelow(cap, from); a != b {
				t.Fatalf("FirstBelow(%d, %d): source %d, restored %d", cap, from, a, b)
			}
		}
	}
}

// TestIndexSnapshotConcurrentDownUp races snapshot-taking against
// SetDown/SetUp churn: mutators own disjoint server ranges and every
// access goes through the index's owner lock (the index itself is not
// internally synchronized — this mirrors how the placement service
// snapshots a live shard). Every captured snapshot must restore to an
// index that passes the capacity audit against the snapshot's own
// occupancy array.
func TestIndexSnapshotConcurrentDownUp(t *testing.T) {
	const n, maxOcc, workers, rounds = 128, 8, 4, 300
	f := NewFleetIndex(n, maxOcc)
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		f.Add(i, workload.ClassCPU, i%maxOcc)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*n/workers, (w+1)*n/workers
			down := make(map[int]bool)
			r := rng.New(uint64(100 + w))
			for step := 0; step < rounds; step++ {
				i := lo + r.Intn(hi-lo)
				mu.Lock()
				if down[i] {
					f.SetUp(i)
				} else {
					f.SetDown(i)
				}
				mu.Unlock()
				down[i] = !down[i]
			}
		}(w)
	}

	for s := 0; s < 50; s++ {
		mu.Lock()
		snap := f.Snapshot()
		mu.Unlock()
		g, err := RestoreIndex(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.AuditInvariants(func(i int) model.Key { return snap.Alloc[i] }); err != nil {
			t.Fatalf("snapshot %d: restored index fails the capacity audit: %v", s, err)
		}
		if !reflect.DeepEqual(g.Snapshot(), snap) {
			t.Fatalf("snapshot %d: restore→snapshot drifted", s)
		}
	}
	wg.Wait()
}

// TestRestoreIndexRejectsMalformed pins the validation errors.
func TestRestoreIndexRejectsMalformed(t *testing.T) {
	cases := []IndexSnapshot{
		{MaxOcc: 0, Alloc: []model.Key{{}}, Down: []bool{false}},
		{MaxOcc: 4, Alloc: []model.Key{{}, {NIO: 1}}, Down: []bool{false}},
		{MaxOcc: 4, Alloc: []model.Key{{NMEM: -1}}, Down: []bool{false}},
	}
	for i, c := range cases {
		if _, err := RestoreIndex(c); err == nil {
			t.Errorf("case %d: RestoreIndex accepted a malformed snapshot", i)
		}
	}
}
