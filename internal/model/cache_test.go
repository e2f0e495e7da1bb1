package model

import (
	"sync"
	"testing"

	"pacevm/internal/obs"
)

func TestEstimateCacheMatchesDB(t *testing.T) {
	db := gridDB(t, 6)
	c := NewEstimateCache(db, 6)
	keys := []Key{
		{NCPU: 1}, {NMEM: 2}, {NIO: 3},
		{NCPU: 2, NMEM: 2, NIO: 2},
		{NCPU: 1, NMEM: 1, NIO: 1},
		{NCPU: 6},          // grid edge
		{NCPU: 9, NMEM: 9}, // off grid → extrapolation or error, either way memoized
	}
	// Query twice: the second pass must serve hits identical to the
	// uncached database, errors included.
	for pass := 0; pass < 2; pass++ {
		for _, k := range keys {
			want, wantErr := db.Estimate(k)
			got, gotErr := c.Estimate(k)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("pass %d key %v: err %v, want %v", pass, k, gotErr, wantErr)
			}
			if gotErr == nil && got != want {
				t.Errorf("pass %d key %v: rec %+v, want %+v", pass, k, got, want)
			}
		}
	}
	if c.Len() != len(keys) {
		t.Errorf("cache holds %d entries, want %d", c.Len(), len(keys))
	}
}

// TestEstimateCacheRefInPlace pins the in-place read: EstimateRef
// returns the record Estimate copies out, the same pointer on every
// later lookup of the key (dense table and spill map alike), and nil
// with the error for an unpriceable key.
func TestEstimateCacheRefInPlace(t *testing.T) {
	db := gridDB(t, 6)
	c := NewEstimateCache(db, 3)
	for _, k := range []Key{{NCPU: 1}, {NCPU: 2, NMEM: 1, NIO: 1}, {NCPU: 6}, {NMEM: 5, NIO: 2}} {
		ref, err := c.EstimateRef(k)
		if err != nil {
			t.Fatalf("key %v: %v", k, err)
		}
		want, _ := db.Estimate(k)
		if *ref != want {
			t.Errorf("key %v: ref %+v, want %+v", k, *ref, want)
		}
		again, _ := c.EstimateRef(k)
		if again != ref {
			t.Errorf("key %v: a second lookup returned another record", k)
		}
		if got, _ := c.Estimate(k); got != want {
			t.Errorf("key %v: Estimate %+v after EstimateRef, want %+v", k, got, want)
		}
	}
	for pass := 0; pass < 2; pass++ {
		if ref, err := c.EstimateRef(Key{}); ref != nil || err == nil {
			t.Errorf("pass %d: empty key gives %v, %v; want nil and an error", pass, ref, err)
		}
	}
}

// TestEstimateCacheInstrumentedConcurrent hammers an instrumented cache
// from 8 goroutines with a mixed hit/miss/insert workload (run under
// -race in `make verify` and CI). Every lookup is exactly one hit or one
// miss, so the counters must sum to the query count, and the size gauge
// must settle on the final key count.
func TestEstimateCacheInstrumentedConcurrent(t *testing.T) {
	db := gridDB(t, 6)
	c := NewEstimateCache(db, 6)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Small key space → mostly hits; worker-skewed component
				// → each goroutine also inserts fresh keys.
				k := Key{NCPU: 1 + i%3, NMEM: (i * w) % 5, NIO: i % 2}
				if _, err := c.Estimate(k); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	hits, misses := snap.Counters["model_cache_hits"], snap.Counters["model_cache_misses"]
	if hits+misses != workers*perWorker {
		t.Errorf("hits (%d) + misses (%d) = %d, want %d lookups", hits, misses, hits+misses, workers*perWorker)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("workload not mixed: hits=%d misses=%d", hits, misses)
	}
	// Duplicate concurrent computations store identical entries, so the
	// final gauge value is exactly the distinct-key count.
	if got, want := snap.Gauges["model_cache_size"], int64(c.Len()); got != want {
		t.Errorf("model_cache_size gauge = %d, want Len() = %d", got, want)
	}
}

func TestEstimateCacheConcurrent(t *testing.T) {
	db := gridDB(t, 6)
	c := NewEstimateCache(db, 6)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{NCPU: i % 4, NMEM: (i + w) % 3, NIO: i % 2}
				if k.IsZero() {
					continue
				}
				got, err := c.Estimate(k)
				if err != nil {
					t.Error(err)
					return
				}
				want, _ := db.Estimate(k)
				if got != want {
					t.Errorf("key %v: concurrent hit %+v != direct %+v", k, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// Len returns the number of memoized keys.
func (c *EstimateCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// Estimate returns db.Estimate(k), memoized. Errors are memoized too:
// an unpriceable key stays unpriceable for the life of the database.
func (c *EstimateCache) Estimate(k Key) (Record, error) {
	rec, err := c.EstimateRef(k)
	if err != nil {
		return Record{}, err
	}
	return *rec, nil
}
