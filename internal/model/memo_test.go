package model

import (
	"sync"
	"sync/atomic"
	"testing"

	"pacevm/internal/workload"
)

// wantPricing is the entry Price must hold for k, computed afresh from
// Estimate and the reference times.
func wantPricing(db *DB, k Key) Pricing {
	var p Pricing
	if p.Rec, p.Err = db.Estimate(k); p.Err != nil {
		return p
	}
	p.Power = p.Rec.AvgPower()
	for _, c := range workload.Classes {
		p.Rate[c] = float64(db.Aux().RefTime[c]) / float64(p.Rec.ClassTime(c))
	}
	return p
}

func samePricing(t *testing.T, what string, k Key, got *Pricing, want Pricing) {
	t.Helper()
	if (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s key %v: err %v, want %v", what, k, got.Err, want.Err)
	}
	if got.Rec != want.Rec || got.Rate != want.Rate || got.Power != want.Power || got.RateErr != nil {
		t.Errorf("%s key %v: entry %+v, want %+v", what, k, *got, want)
	}
}

// The tests named EstimateCache cover the database's estimate memo
// (memo.go), the cache every caller prices through.

// TestEstimateCacheMatchesDB pins the memo to the uncached database:
// the first lookup of a key misses and later ones hit, and the entry
// holds Estimate's record or error plus the progress rates and mean
// power derived from it, for keys in the dense table and past it.
func TestEstimateCacheMatchesDB(t *testing.T) {
	db := gridDB(t, 6) // dense table bound 6: (9,9,0) and (0,0,7) spill
	keys := []Key{
		{NCPU: 1}, {NMEM: 2}, {NIO: 3},
		{NCPU: 2, NMEM: 2, NIO: 2},
		{NCPU: 1, NMEM: 1, NIO: 1},
		{NCPU: 6},          // grid edge
		{NIO: 7},           // past the grid: extrapolated, spilled
		{NCPU: 9, NMEM: 9}, // off grid → extrapolation or error, either way memoized
		{},                 // unpriceable, memoized with its error
	}
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			got, hit := db.Price(k)
			if hit != (pass == 1) {
				t.Errorf("pass %d key %v: hit = %v", pass, k, hit)
			}
			samePricing(t, "Price", k, got, wantPricing(db, k))
		}
	}
	if got := db.MemoSize(); got != len(keys) {
		t.Errorf("memo holds %d entries, want %d", got, len(keys))
	}
}

// TestEstimateCacheRefInPlace pins the in-place read: every later
// lookup of a key returns the same write-once entry (dense table and
// spill map alike), and an unpriceable key keeps its error.
func TestEstimateCacheRefInPlace(t *testing.T) {
	db := gridDB(t, 3)
	for _, k := range []Key{{NCPU: 1}, {NCPU: 2, NMEM: 1, NIO: 1}, {NCPU: 6}, {NMEM: 5, NIO: 2}} {
		first, _ := db.Price(k)
		if first.Err != nil {
			t.Fatalf("key %v: %v", k, first.Err)
		}
		if again, hit := db.Price(k); again != first || !hit {
			t.Errorf("key %v: a second lookup returned another entry (hit %v)", k, hit)
		}
		if want, _ := db.Estimate(k); first.Rec != want {
			t.Errorf("key %v: record %+v, want %+v", k, first.Rec, want)
		}
	}
	for pass := 0; pass < 2; pass++ {
		if p, _ := db.Price(Key{}); p.Err == nil {
			t.Errorf("pass %d: empty key priced without an error", pass)
		}
	}
}

// TestPriceDenseBoundClamped checks that a grid past 16 VMs per class
// keeps the dense table at 17³ slots and prices the keys beyond it
// through the spill map.
func TestPriceDenseBoundClamped(t *testing.T) {
	db, err := New([]Record{mkRecord(Key{NCPU: 1}), mkRecord(Key{NCPU: 20})}, mkAux())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.memo.dense); got != 17*17*17 {
		t.Errorf("dense table has %d slots, want 17³", got)
	}
	for _, k := range []Key{{NCPU: 16}, {NCPU: 20}, {NCPU: 3, NIO: 18}} {
		p, _ := db.Price(k)
		samePricing(t, "Price", k, p, wantPricing(db, k))
	}
	if db.memo.spill == nil || len(db.memo.spill) != 2 {
		t.Errorf("spill map %v, want the two keys past 16", db.memo.spill)
	}
}

// TestEstimateCacheInstrumentedConcurrent hammers one database's memo
// from 8 goroutines with a mixed hit/miss/insert workload (run under
// -race in `make verify` and CI) and counts what Price reports, as the
// allocator's and the simulator's counters do. Every lookup reports
// exactly one hit or miss, each key misses at least once and racing
// stores keep one winner, so the memo ends with exactly the distinct
// keys, each equal to the uncached estimate.
func TestEstimateCacheInstrumentedConcurrent(t *testing.T) {
	db := gridDB(t, 6)
	const workers, perWorker = 8, 500
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Small key space → mostly hits; worker-skewed components
				// → each goroutine also inserts fresh keys, some past the
				// dense table.
				k := Key{NCPU: 1 + i%3, NMEM: (i * w) % 9, NIO: i % 2}
				p, hit := db.Price(k)
				if hit {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				if want := wantPricing(db, k); p.Err != nil || p.Rec != want.Rec || p.Rate != want.Rate {
					t.Errorf("key %v: concurrent entry %+v, want %+v", k, *p, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	distinct := map[Key]bool{}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			distinct[Key{NCPU: 1 + i%3, NMEM: (i * w) % 9, NIO: i % 2}] = true
		}
	}
	if hits.Load()+misses.Load() != workers*perWorker {
		t.Errorf("hits (%d) + misses (%d) != %d lookups", hits.Load(), misses.Load(), workers*perWorker)
	}
	if hits.Load() == 0 || misses.Load() < int64(len(distinct)) {
		t.Errorf("hits=%d misses=%d over %d distinct keys", hits.Load(), misses.Load(), len(distinct))
	}
	if got := db.MemoSize(); got != len(distinct) {
		t.Errorf("memo holds %d entries, want %d distinct keys", got, len(distinct))
	}
}

// TestEstimateCacheConcurrent checks that goroutines racing to price
// the same keys all read the winner's entry, equal to the uncached
// estimate.
func TestEstimateCacheConcurrent(t *testing.T) {
	db := gridDB(t, 6)
	entries := make([][]*Pricing, 8)
	var wg sync.WaitGroup
	for w := range entries {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{NCPU: i % 4, NMEM: (i + w) % 3, NIO: i % 2}
				if k.IsZero() {
					continue
				}
				p, _ := db.Price(k)
				entries[w] = append(entries[w], p)
			}
		}(w)
	}
	wg.Wait()
	for w := range entries {
		for _, p := range entries[w] {
			if winner, _ := db.Price(p.Rec.Key); p != winner {
				t.Fatalf("worker %d read an entry for %v the memo does not hold", w, p.Rec.Key)
			}
			samePricing(t, "concurrent Price", p.Rec.Key, p, wantPricing(db, p.Rec.Key))
		}
	}
}
