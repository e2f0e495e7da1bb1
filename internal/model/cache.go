package model

import (
	"sync"

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
// The cache holds an unbounded map of one database's estimates. The
// allocator in internal/core keeps one per Allocator, across every
// search it runs; its capacity and per-class bounds cap the keys it
// prices, so the map stays small.
type EstimateCache struct {
	db *DB

	// Telemetry handles (see Instrument); nil by default, the zero-cost
	// disabled path.
	hits   *obs.Counter
	misses *obs.Counter
	size   *obs.Gauge

	mu sync.RWMutex
	m  map[Key]estimateEntry
}

type estimateEntry struct {
	rec Record
	err error
}

// NewEstimateCache returns an empty cache over db.
func NewEstimateCache(db *DB) *EstimateCache {
	return &EstimateCache{db: db, m: make(map[Key]estimateEntry, 64)}
}

// DB returns the underlying database.
func (c *EstimateCache) DB() *DB { return c.db }

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

// Len returns the number of memoized keys.
func (c *EstimateCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Estimate returns db.Estimate(k), memoized. Errors are memoized too:
// an unpriceable key stays unpriceable for the life of the database.
func (c *EstimateCache) Estimate(k Key) (Record, error) {
	c.mu.RLock()
	e, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Inc()
		return e.rec, e.err
	}
	c.misses.Inc()
	// Compute outside the lock; concurrent duplicate computations are
	// benign because Estimate is deterministic, so last-write-wins
	// stores an identical entry.
	rec, err := c.db.Estimate(k)
	c.mu.Lock()
	c.m[k] = estimateEntry{rec: rec, err: err}
	c.size.Set(int64(len(c.m)))
	c.mu.Unlock()
	return rec, err
}
