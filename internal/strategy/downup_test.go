package strategy

import (
	"testing"

	"pacevm/internal/rng"
	"pacevm/internal/workload"
)

// naiveFleet is the obvious recomputation FleetIndex must agree with: a
// plain occupancy array plus a down mask, scanned linearly.
type naiveFleet struct {
	used []int
	down []bool
}

func (n *naiveFleet) firstBelow(cap, from int) int {
	if cap < 1 {
		return -1
	}
	if from < 0 {
		from = 0
	}
	for i := from; i < len(n.used); i++ {
		if !n.down[i] && n.used[i] < cap {
			return i
		}
	}
	return -1
}

// TestFleetIndexDownUpProperty drives random sequences of
// place/release/fail/recover against the index and requires its answers
// to match the naive recomputation for every cap (indexed range and the
// wide-cap linear fallback) after every step.
func TestFleetIndexDownUpProperty(t *testing.T) {
	const (
		servers = 37 // not a multiple of 64: exercises the bitmap tail
		maxOcc  = 5
		steps   = 4000
	)
	r := rng.New(20250805)
	idx := NewFleetIndex(servers, maxOcc)
	naive := &naiveFleet{used: make([]int, servers), down: make([]bool, servers)}

	check := func(step int) {
		t.Helper()
		up, occupied := 0, 0
		for i := 0; i < servers; i++ {
			if idx.Used(i) != naive.used[i] {
				t.Fatalf("step %d: Used(%d) = %d, naive %d", step, i, idx.Used(i), naive.used[i])
			}
			if idx.Down(i) != naive.down[i] {
				t.Fatalf("step %d: Down(%d) = %v, naive %v", step, i, idx.Down(i), naive.down[i])
			}
			if !naive.down[i] {
				up++
				if naive.used[i] > 0 {
					occupied++
				}
			}
		}
		if idx.NumUp() != up || idx.NumOccupied() != occupied {
			t.Fatalf("step %d: NumUp %d, NumOccupied %d; naive %d, %d (used=%v down=%v)",
				step, idx.NumUp(), idx.NumOccupied(), up, occupied, naive.used, naive.down)
		}
		// Every cap within the indexed range, plus one beyond it (the
		// linear-fallback path), from a handful of start offsets.
		for cap := 1; cap <= maxOcc+2; cap++ {
			for _, from := range []int{0, 1, servers / 2, servers - 1, servers} {
				got := idx.FirstBelow(cap, from)
				want := naive.firstBelow(cap, from)
				if got != want {
					t.Fatalf("step %d: FirstBelow(%d, %d) = %d, naive %d (used=%v down=%v)",
						step, cap, from, got, want, naive.used, naive.down)
				}
			}
		}
	}

	check(-1)
	for step := 0; step < steps; step++ {
		i := r.Intn(servers)
		switch op := r.Intn(4); op {
		case 0: // place (allow overfill past maxOcc, as the consolidator can)
			if naive.used[i] < maxOcc+2 {
				idx.Add(i, workload.ClassCPU, 1)
				naive.used[i]++
			}
		case 1: // release
			if naive.used[i] > 0 {
				idx.Add(i, workload.ClassCPU, -1)
				naive.used[i]--
			}
		case 2: // fail — a crash empties the server first, like the simulator,
			// but exercise the index with residual occupancy too
			if !naive.down[i] {
				if r.Bool(0.5) && naive.used[i] > 0 {
					idx.Add(i, workload.ClassCPU, -naive.used[i])
					naive.used[i] = 0
				}
				idx.SetDown(i)
				naive.down[i] = true
			}
		case 3: // recover
			if naive.down[i] {
				idx.SetUp(i)
				naive.down[i] = false
			}
		}
		check(step)
	}
}

// TestFleetIndexDownTransitionsPanic pins the contract that double
// transitions are caller bugs, not silent no-ops.
func TestFleetIndexDownTransitionsPanic(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	idx := NewFleetIndex(4, 3)
	idx.SetDown(2)
	expectPanic("double SetDown", func() { idx.SetDown(2) })
	idx.SetUp(2)
	expectPanic("double SetUp", func() { idx.SetUp(2) })
}

// TestFleetIndexAddWhileDown pins that occupancy changes on a down
// server update the tracked count but never re-enter the threshold sets
// until SetUp.
func TestFleetIndexAddWhileDown(t *testing.T) {
	idx := NewFleetIndex(3, 4)
	idx.Add(1, workload.ClassCPU, 2)
	idx.SetDown(1)
	idx.Add(1, workload.ClassCPU, 1) // bookkeeping while down
	if idx.Used(1) != 3 {
		t.Fatalf("Used(1) = %d, want 3", idx.Used(1))
	}
	for cap := 1; cap <= 5; cap++ {
		if got := idx.FirstBelow(cap, 1); got == 1 {
			t.Fatalf("down server 1 surfaced at cap %d", cap)
		}
	}
	idx.SetUp(1)
	if got := idx.FirstBelow(4, 1); got != 1 {
		t.Fatalf("recovered server 1 not found: FirstBelow(4,1) = %d", got)
	}
	if got := idx.FirstBelow(3, 1); got != 2 {
		t.Fatalf("recovered server at occupancy 3 wrongly below cap 3: got %d", got)
	}
}
