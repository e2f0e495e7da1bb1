package model

import (
	"sync"
	"sync/atomic"

	"pacevm/internal/obs"
)

// EstimateCache memoizes DB.Estimate results. Estimate is pure for a
// given database, but off-grid keys pay a linear nearest-record scan,
// and the allocator's partition search prices the same few dozen
// allocations thousands of times per decision. The cache is safe for
// concurrent use; a hit returns exactly the record a direct Estimate
// call would, so cached and uncached searches are bit-for-bit
// equivalent.
//
// Keys whose per-class counts all lie within the cache's bound live in
// a dense table indexed arithmetically from the key, read without a
// lock: each slot is written once, by compare-and-swap, and a hit is
// one atomic load. Keys beyond the bound (a consolidator's overfill,
// an ablation without per-class bounds) fall back to a map behind a
// read-write mutex.
//
// The allocator in internal/core keeps one cache per Allocator, across
// every search it runs, bounded by its per-class limits; its capacity
// and per-class bounds cap the keys it prices, so the cache stays
// small.
type EstimateCache struct {
	db *DB

	// Telemetry handles (see Instrument); nil by default, the zero-cost
	// disabled path.
	hits   *obs.Counter
	misses *obs.Counter
	size   *obs.Gauge

	// d is the exclusive per-class bound of the dense table.
	d     int
	dense []atomic.Pointer[estimateEntry]

	mu sync.RWMutex
	m  map[Key]*estimateEntry
	n  int // memoized keys, dense and spilled; guarded by mu
}

type estimateEntry struct {
	rec Record
	err error
}

// maxDensePerClass caps the dense table at 17³ slots, whatever bound
// the caller asks for.
const maxDensePerClass = 16

// NewEstimateCache returns an empty cache over db whose dense table
// covers every key with per-class counts in [0, bound] (bound is
// clamped to 16).
func NewEstimateCache(db *DB, bound int) *EstimateCache {
	d := min(max(bound, 0), maxDensePerClass) + 1
	return &EstimateCache{
		db:    db,
		d:     d,
		dense: make([]atomic.Pointer[estimateEntry], d*d*d),
		m:     make(map[Key]*estimateEntry),
	}
}

// Instrument wires the cache's telemetry to reg: counters
// model_cache_hits and model_cache_misses plus the model_cache_size
// gauge (memoized-key count). A nil reg resolves the handles to nil,
// keeping the disabled no-op path. Multiple caches instrumented against
// one registry share the instruments (the counts aggregate).
func (c *EstimateCache) Instrument(reg *obs.Registry) {
	c.hits = reg.Counter("model_cache_hits")
	c.misses = reg.Counter("model_cache_misses")
	c.size = reg.Gauge("model_cache_size")
}

// slot maps a key to its dense-table index, or -1 when any component
// falls outside [0, d).
func (c *EstimateCache) slot(k Key) int {
	d := c.d
	if uint(k.NCPU) < uint(d) && uint(k.NMEM) < uint(d) && uint(k.NIO) < uint(d) {
		return (k.NCPU*d+k.NMEM)*d + k.NIO
	}
	return -1
}

// EstimateRef is Estimate returning the memoized record in place: the
// pointer stays valid, and the record unchanged, for the life of the
// cache, and callers must not write through it. It saves a hot caller
// the copy of a whole Record per lookup. The record is nil exactly when
// the error is set.
func (c *EstimateCache) EstimateRef(k Key) (*Record, error) {
	i := c.slot(k)
	if i >= 0 {
		if e := c.dense[i].Load(); e != nil {
			c.hits.Inc()
			return e.result()
		}
	} else {
		c.mu.RLock()
		e, ok := c.m[k]
		c.mu.RUnlock()
		if ok {
			c.hits.Inc()
			return e.result()
		}
	}
	c.misses.Inc()
	// Compute outside the lock; concurrent duplicate computations are
	// benign because Estimate is deterministic: the first store wins and
	// every caller returns the winner's entry.
	rec, err := c.db.Estimate(k)
	e := &estimateEntry{rec: rec, err: err}
	if i >= 0 && !c.dense[i].CompareAndSwap(nil, e) {
		return c.dense[i].Load().result()
	}
	c.mu.Lock()
	if i < 0 {
		if won, dup := c.m[k]; dup {
			c.mu.Unlock()
			return won.result()
		}
		c.m[k] = e
	}
	c.n++
	c.size.Set(int64(c.n))
	c.mu.Unlock()
	return e.result()
}

// result is the entry as EstimateRef returns it.
func (e *estimateEntry) result() (*Record, error) {
	if e.err != nil {
		return nil, e.err
	}
	return &e.rec, nil
}
