package cloudsim

// Scaling pins for the per-event cost model: the queue helpers behave
// like the plain slice they replaced under the full interleaving the
// engine produces (head pops, backfill splices, fault-requeue appends),
// and per-request cost stays flat as the fleet grows for every
// strategy, since each places through the fleet index.

import (
	"math"
	"testing"
	"time"

	"pacevm/internal/core"
	"pacevm/internal/strategy"
)

// TestQueueHelpers drives qlen/qat/qpophead/qremove against a reference
// slice model through a deterministic pseudo-random interleaving of the
// three queue mutations the engine performs: fault-requeue appends,
// FCFS head pops, and backfill splices at arbitrary depth. The walk is
// long enough to cross qpophead's dead-prefix compaction threshold
// repeatedly, which is the part a naive reading of the helpers misses.
func TestQueueHelpers(t *testing.T) {
	s := &sim{}
	var ref []int
	next := 0
	seed := uint64(0x9e3779b97f4a7c15)
	rand := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	check := func(step int) {
		t.Helper()
		if s.qlen() != len(ref) {
			t.Fatalf("step %d: qlen = %d, want %d", step, s.qlen(), len(ref))
		}
		for i := range ref {
			if s.qat(i) != ref[i] {
				t.Fatalf("step %d: qat(%d) = %d, want %d", step, i, s.qat(i), ref[i])
			}
		}
	}
	for step := 0; step < 20000; step++ {
		switch op := rand(5); {
		case op <= 1 || s.qlen() == 0: // fault-requeue append
			s.queue = append(s.queue, next)
			ref = append(ref, next)
			next++
		case op <= 3: // FCFS head pop
			if got := s.qat(0); got != ref[0] {
				t.Fatalf("step %d: head = %d, want %d", step, got, ref[0])
			}
			s.qpophead()
			ref = ref[1:]
		case s.qlen() > 1: // backfill splice, never the head
			i := 1 + rand(s.qlen()-1)
			if got := s.qat(i); got != ref[i] {
				t.Fatalf("step %d: qat(%d) = %d, want %d", step, i, s.qat(i), ref[i])
			}
			s.qremove(i)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if step%257 == 0 {
			check(step)
		}
	}
	check(20000)
	// The compaction invariant must hold at every point of the walk: the
	// dead prefix never simultaneously passes 64 entries and half the
	// backing slice.
	if s.qhead >= 64 && s.qhead*2 >= len(s.queue) {
		t.Fatalf("dead prefix survived past the compaction threshold (qhead %d, backing %d)", s.qhead, len(s.queue))
	}
	// Deterministic compaction crossing on a fresh queue: 100 appends
	// then 70 pops trip the threshold exactly once, at the 64th pop
	// (64 >= 64 and 128 >= 100), copying the 36 survivors down; the 6
	// remaining pops then advance the fresh head.
	s, ref = &sim{}, ref[:0]
	for i := 0; i < 100; i++ {
		s.queue = append(s.queue, next)
		ref = append(ref, next)
		next++
	}
	for i := 0; i < 70; i++ {
		s.qpophead()
		ref = ref[1:]
	}
	if s.qhead != 6 || len(s.queue) != 36 {
		t.Fatalf("compaction fired wrong: qhead %d, backing %d, want 6 over 36", s.qhead, len(s.queue))
	}
	check(-1)
}

// TestPerRequestScalingSmoke is the wall-clock side of the scaling
// guard, wired into `make verify` (scale-smoke) and CI: per-request
// cost on a 4096-server fleet must stay within a small factor of the
// 64-server cost on the same request stream. Before the indexed
// placement and capacity-summary work every queued-placement retry and
// consolidation sweep walked the whole fleet, and this ratio grew with
// the server count; now it is bounded by queue dynamics alone. The
// bound is deliberately loose (3x, best of three interleaved runs) — a
// timing smoke against regressions to O(servers)-per-event, not a
// benchmark.
func TestPerRequestScalingSmoke(t *testing.T) {
	const requests = 3000
	db := sharedDB(t)
	reqs := goldenWorkload(t, 77, requests)
	cases := []struct {
		name string
		st   strategy.Strategy
	}{
		{"FF-2", ff(t, 2)},
		// BF walks the bitmap of the fullest non-empty occupancy level.
		{"BF-2", &strategy.BestFit{Multiplex: 2}},
		// PA decides through the index's allocation classes, so its
		// per-request cost is flat in the fleet too.
		{"PA-0.5", pa(t, core.GoalBalanced)},
	}
	for _, c := range cases {
		// The two fleet sizes alternate trial by trial (64, 4096, 64, ...)
		// so a burst of host contention lands on both sides, not on one
		// size's whole set of trials; each keeps its best of three.
		best := [2]float64{math.Inf(1), math.Inf(1)}
		for trial := 0; trial < 3; trial++ {
			for i, servers := range [2]int{64, 4096} {
				cfg := Config{DB: db, Servers: servers, Strategy: c.st, BackfillDepth: 4}
				start := time.Now()
				if _, err := Run(cfg, reqs); err != nil {
					t.Fatal(err)
				}
				if d := float64(time.Since(start)) / requests; d < best[i] {
					best[i] = d
				}
			}
		}
		small, mid := best[0], best[1]
		t.Logf("%s: %.0fns per request at 64 servers, %.0fns at 4096", c.name, small, mid)
		if ratio := mid / small; ratio > 3 {
			t.Errorf("%s: per-request cost grew %.2fx from 64 to 4096 servers (%.0fns vs %.0fns); an O(servers)-per-event path is back",
				c.name, ratio, small, mid)
		}
	}
}
