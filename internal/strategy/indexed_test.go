package strategy

import (
	"slices"
	"testing"
	"testing/quick"

	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/rng"
	"pacevm/internal/workload"
)

func TestBitsetFirstFrom(t *testing.T) {
	b := newBitset(300)
	if got := b.firstFrom(0); got != -1 {
		t.Fatalf("empty bitset firstFrom = %d", got)
	}
	for _, i := range []int{0, 63, 64, 129, 299} {
		b.set(i)
	}
	cases := []struct{ from, want int }{
		{0, 0}, {1, 63}, {63, 63}, {64, 64}, {65, 129},
		{129, 129}, {130, 299}, {299, 299}, {300, -1}, {-5, 0},
	}
	for _, c := range cases {
		if got := b.firstFrom(c.from); got != c.want {
			t.Errorf("firstFrom(%d) = %d, want %d", c.from, got, c.want)
		}
	}
	b.clear(63)
	if got := b.firstFrom(1); got != 64 {
		t.Errorf("after clear, firstFrom(1) = %d, want 64", got)
	}
}

func TestBitsetSetAllAndSummary(t *testing.T) {
	// A size crossing the summary word boundary (> 4096).
	b := newBitset(5000)
	b.setAll()
	for _, i := range []int{0, 4095, 4096, 4999} {
		if got := b.firstFrom(i); got != i {
			t.Fatalf("setAll firstFrom(%d) = %d", i, got)
		}
	}
	// Clear a long prefix and make sure the summary skips it.
	for i := 0; i < 4500; i++ {
		b.clear(i)
	}
	if got := b.firstFrom(0); got != 4500 {
		t.Errorf("firstFrom over cleared prefix = %d, want 4500", got)
	}
}

func TestFleetIndexOccupancyLevels(t *testing.T) {
	f := NewFleetIndex(4, 3)
	// All empty: every server visible under any cap.
	if got := f.FirstBelow(1, 0); got != 0 {
		t.Fatalf("FirstBelow(1,0) = %d", got)
	}
	f.Add(0, workload.ClassCPU, 3) // full
	f.Add(1, workload.ClassCPU, 2)
	f.Add(2, workload.ClassCPU, 1)
	cases := []struct{ cap, from, want int }{
		{1, 0, 3},  // only the empty server has used < 1
		{2, 0, 2},  // used < 2: servers 2 and 3
		{3, 0, 1},  // used < 3: servers 1,2,3
		{4, 0, 0},  // cap past maxOcc matches everything
		{99, 0, 0}, // clamped
		{2, 3, 3},
		{1, 4, -1},
	}
	for _, c := range cases {
		if got := f.FirstBelow(c.cap, c.from); got != c.want {
			t.Errorf("FirstBelow(%d,%d) = %d, want %d", c.cap, c.from, got, c.want)
		}
	}
	f.Add(0, workload.ClassCPU, -3)
	if got := f.FirstBelow(1, 0); got != 0 {
		t.Errorf("after draining server 0, FirstBelow(1,0) = %d", got)
	}
	if f.Used(1) != 2 || f.Len() != 4 {
		t.Errorf("Used/Len broken: %d/%d", f.Used(1), f.Len())
	}
}

func TestFleetIndexRejectsNegativeOccupancy(t *testing.T) {
	f := NewFleetIndex(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Add(-1) on empty server did not panic")
		}
	}()
	f.Add(0, workload.ClassCPU, -1)
}

func TestFleetIndexOverfillAndWideCap(t *testing.T) {
	// A consolidator may push a server past the indexed range; the index
	// must keep exact semantics both for indexed caps and for caps wider
	// than the admission limit (linear fallback).
	f := NewFleetIndex(3, 2)
	f.Add(0, workload.ClassCPU, 4) // overfilled past maxOcc=2
	f.Add(1, workload.ClassCPU, 2)
	if got := f.FirstBelow(1, 0); got != 2 {
		t.Errorf("FirstBelow(1,0) = %d, want 2", got)
	}
	if got := f.FirstBelow(3, 0); got != 1 {
		t.Errorf("FirstBelow(3,0) = %d, want 1", got)
	}
	// Cap wider than the indexed range: exact scan must see the
	// overfilled server only when genuinely below cap.
	if got := f.FirstBelow(5, 0); got != 0 {
		t.Errorf("FirstBelow(5,0) = %d, want 0", got)
	}
	if got := f.FirstBelow(4, 0); got != 1 {
		t.Errorf("FirstBelow(4,0) = %d, want 1", got)
	}
	// Draining back into range restores bitmap membership.
	f.Add(0, workload.ClassCPU, -4)
	if got := f.FirstBelow(1, 0); got != 0 {
		t.Errorf("after drain FirstBelow(1,0) = %d, want 0", got)
	}
}

// vmReqs builds n interchangeable one-slot VM requests.
func vmReqs(n int) []core.VMRequest {
	out := make([]core.VMRequest, n)
	for i := range out {
		out[i] = core.VMRequest{ID: string(rune('a' + i)), Class: workload.ClassCPU, NominalTime: 100, MaxTime: 1000}
	}
	return out
}

// TestIndexedFirstFitMatchesLinear drives random fleets through both
// Place and PlaceIndexed and requires identical decisions — the indexed
// path is an equivalent implementation, not a different policy.
func TestIndexedFirstFitMatchesLinear(t *testing.T) {
	f := func(seed uint64, mult8, servers8, jobs8 uint8) bool {
		mult := int(mult8%3) + 1
		servers := int(servers8%40) + 1
		ff, err := NewFirstFit(mult)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		const maxOcc = 16
		idx := NewFleetIndex(servers, maxOcc)
		views := make([]Server, servers)
		occ := make([]int, servers)
		for i := range views {
			views[i] = Server{ID: i}
		}
		dst := make([]int, 4)
		for job := 0; job < int(jobs8%20)+5; job++ {
			vms := vmReqs(r.IntBetween(1, 4))
			want, wantOK := ff.Place(views, vms)
			got, gotOK := ff.PlaceIndexed(idx, vms, dst)
			if wantOK != gotOK {
				t.Logf("ok mismatch: linear %v indexed %v (servers=%d mult=%d)", wantOK, gotOK, servers, mult)
				return false
			}
			if !wantOK {
				// Free a random server fully and keep going.
				s := r.Intn(servers)
				if occ[s] > 0 {
					idx.Add(s, workload.ClassCPU, -occ[s])
					occ[s] = 0
					views[s].Alloc = model.Key{}
				}
				continue
			}
			for i := range want {
				if want[i] != got[i] {
					t.Logf("assign mismatch at vm %d: linear %v indexed %v", i, want, got)
					return false
				}
			}
			// Commit, sometimes; otherwise both paths must have stayed
			// side-effect free, which the next round verifies implicitly.
			if r.Bool(0.8) {
				for _, s := range want {
					occ[s]++
					idx.Add(s, workload.ClassCPU, 1)
					views[s].Alloc = views[s].Alloc.Add(model.KeyFor(workload.ClassCPU, 1))
				}
			}
			// Random completions.
			if r.Bool(0.3) {
				s := r.Intn(servers)
				if occ[s] > 0 {
					occ[s]--
					idx.Add(s, workload.ClassCPU, -1)
					views[s].Alloc = views[s].Alloc.Add(model.KeyFor(workload.ClassCPU, -1))
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestIndexedBestFitMatchesLinear is a seeded differential of the
// indexed best-fit against its linear Place on the index's up servers
// in id order, over random fleets with down servers and servers
// overfilled past the index's ceiling. Multiplex levels 1..5 against
// ceilings 1..16 put the cap below, at and past maxOcc+1, and jobs hold
// 1–4 VMs. The probe behind PlaceIndexed is also checked against a
// brute-force scan for every cap 1..maxOcc+4, with up to 3 servers
// skipped as a job's earlier VMs skip them.
func TestIndexedBestFitMatchesLinear(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		maxOcc := r.IntBetween(1, 16)
		n := r.IntBetween(1, 140)
		bf := &BestFit{Multiplex: r.IntBetween(1, 5)}
		idx := NewFleetIndex(n, maxOcc)
		addOne := func(i int) { idx.Add(i, workload.Classes[r.Intn(workload.NumClasses)], 1) }
		removeOne := func(i int) {
			for _, c := range workload.Classes {
				if idx.Alloc(i).Count(c) > 0 {
					idx.Add(i, c, -1)
					return
				}
			}
		}
		for i := 0; i < n; i++ {
			for k := r.IntBetween(0, maxOcc+3); k > 0; k-- {
				addOne(i)
			}
			if r.Bool(0.15) {
				idx.SetDown(i)
			}
		}
		dst := make([]int, 4)
		for step := 0; step < 30; step++ {
			for cap := 1; cap <= maxOcc+4; cap++ {
				skip := make([]int, r.Intn(4))
				for j := range skip {
					skip[j] = r.Intn(n)
				}
				wantID, wantUsed := -1, -1
				for i := 0; i < n; i++ {
					if u := idx.Used(i); !idx.Down(i) && u < cap && u > wantUsed && !slices.Contains(skip, i) {
						wantID, wantUsed = i, u
					}
				}
				if id := idx.fullestBelow(cap, skip); id != wantID {
					t.Fatalf("seed %d step %d: fullestBelow(%d, %v) = %d, want %d (used %d)",
						seed, step, cap, skip, id, wantID, wantUsed)
				}
			}
			var view []Server
			for i := 0; i < n; i++ {
				if !idx.Down(i) {
					view = append(view, Server{ID: i, Alloc: idx.Alloc(i)})
				}
			}
			if idx.NumUp() != len(view) {
				t.Fatalf("seed %d step %d: NumUp = %d, %d servers up", seed, step, idx.NumUp(), len(view))
			}
			vms := vmReqs(r.IntBetween(1, 4))
			want, wantOK := bf.Place(view, vms)
			got, gotOK := bf.PlaceIndexed(idx, vms, dst)
			if wantOK != gotOK || wantOK && !slices.Equal(want, got) {
				t.Fatalf("seed %d step %d (%s, maxOcc %d, %d servers): linear %v %v, indexed %v %v",
					seed, step, bf.Name(), maxOcc, n, want, wantOK, got, gotOK)
			}
			if wantOK && r.Bool(0.7) {
				for _, i := range want {
					addOne(i)
				}
			}
			if i := r.Intn(n); idx.Used(i) > 0 {
				removeOne(i)
			}
			if i := r.Intn(n); r.Bool(0.2) {
				if idx.Down(i) {
					idx.SetUp(i)
				} else {
					idx.SetDown(i)
				}
			}
		}
		if err := idx.AuditInvariants(idx.Alloc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestIndexedBestFitRefuses(t *testing.T) {
	idx := NewFleetIndex(3, 4)
	if _, ok := (&BestFit{Multiplex: 1}).PlaceIndexed(idx, nil, nil); ok {
		t.Error("PlaceIndexed accepted an empty VM set")
	}
	if _, ok := (&BestFit{}).PlaceIndexed(idx, vmReqs(1), nil); ok {
		t.Error("PlaceIndexed accepted multiplex 0")
	}
}

func TestIndexedFirstFitEmptyVMs(t *testing.T) {
	ff, _ := NewFirstFit(1)
	if _, ok := ff.PlaceIndexed(NewFleetIndex(3, 4), nil, nil); ok {
		t.Error("PlaceIndexed accepted an empty VM set")
	}
}

func TestIndexedFirstFitNilDst(t *testing.T) {
	ff, _ := NewFirstFit(1)
	assign, ok := ff.PlaceIndexed(NewFleetIndex(3, 4), vmReqs(2), nil)
	if !ok || len(assign) != 2 || assign[0] != 0 || assign[1] != 0 {
		t.Errorf("PlaceIndexed with nil dst = %v, %v", assign, ok)
	}
}

// BenchmarkFirstFitLinearVsIndexed quantifies the fleet-scan removal at
// a ROADMAP-scale fleet.
func BenchmarkFirstFitLinear(b *testing.B) {
	ff, _ := NewFirstFit(3)
	const n = 4096
	views := make([]Server, n)
	for i := range views {
		views[i] = Server{ID: i, Alloc: model.KeyFor(workload.ClassCPU, 11)}
	}
	views[n-1].Alloc = model.Key{}
	vms := vmReqs(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ff.Place(views, vms); !ok {
			b.Fatal("placement failed")
		}
	}
}

func BenchmarkFirstFitIndexed(b *testing.B) {
	ff, _ := NewFirstFit(3)
	const n = 4096
	idx := NewFleetIndex(n, 16)
	for i := 0; i < n-1; i++ {
		idx.Add(i, workload.ClassCPU, 11)
	}
	vms := vmReqs(4)
	dst := make([]int, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ff.PlaceIndexed(idx, vms, dst); !ok {
			b.Fatal("placement failed")
		}
	}
}
