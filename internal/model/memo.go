package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// Pricing is the estimate memo's entry for one key: the record
// DB.Estimate returns for it, and the progress pricing the simulator
// advances each interval at (Fig. 4). Entries are written once, so a
// pointer to one stays valid and unchanged for the life of the
// database; callers must not write through it.
type Pricing struct {
	// Rec is Estimate's record, and Err its error (Rec is zero then).
	Rec Record
	Err error
	// Rate[c] is the progress of a class-c VM under the allocation, in
	// nominal seconds per wall second: RefTime[c] / Rec.ClassTime(c).
	Rate [workload.NumClasses]float64
	// Power is the record's mean power draw.
	Power units.Watts
	// RateErr is set when some class has no usable time under the
	// record, so no progress rate exists for it.
	RateErr error
}

// memo memoizes Estimate for one database. Estimate is pure, but
// off-grid keys pay a linear nearest-record scan, and both the
// allocator's partition search and the simulator's event loop price the
// same few dozen allocations again and again, so every caller shares
// the one memo its database holds.
//
// Keys whose per-class counts all lie within the grid's bound live in a
// dense table indexed arithmetically from the key, read without a lock:
// each slot is written once, by compare-and-swap, and a hit is one
// atomic load. Keys beyond it (a consolidator's overfill, an ablation
// without per-class bounds, a simulator admitting more VMs than the
// grid measured) fall back to a map behind a read-write mutex.
type memo struct {
	// d is the exclusive per-class bound of the dense table.
	d     int
	dense []atomic.Pointer[Pricing]

	mu    sync.RWMutex
	spill map[Key]*Pricing // nil until a key spills
	n     atomic.Int64     // memoized keys, dense and spilled
}

// maxDensePerClass caps the dense table at 17³ slots, whatever the
// grid's bound.
const maxDensePerClass = 16

// init sizes the dense table to cover every key with per-class counts
// in [0, bound], bound clamped to 16.
func (m *memo) init(bound int) {
	m.d = min(max(bound, 0), maxDensePerClass) + 1
	m.dense = make([]atomic.Pointer[Pricing], m.d*m.d*m.d)
}

// slot maps a key to its dense-table index, or -1 when any component
// falls outside [0, d).
func (m *memo) slot(k Key) int {
	d := m.d
	if uint(k.NCPU) < uint(d) && uint(k.NMEM) < uint(d) && uint(k.NIO) < uint(d) {
		return (k.NCPU*d+k.NMEM)*d + k.NIO
	}
	return -1
}

// Price returns the memoized pricing of k, and whether the memo already
// held it (so callers can count hits and misses). The entry's record
// and error are exactly Estimate(k)'s, errors memoized too: an
// unpriceable key stays unpriceable for the life of the database. Safe
// for concurrent use.
func (db *DB) Price(k Key) (*Pricing, bool) {
	m := &db.memo
	i := m.slot(k)
	if i >= 0 {
		if p := m.dense[i].Load(); p != nil {
			return p, true
		}
	} else {
		m.mu.RLock()
		p, ok := m.spill[k]
		m.mu.RUnlock()
		if ok {
			return p, true
		}
	}
	// Compute outside the lock; concurrent duplicate computations are
	// benign because pricing is deterministic: the first store wins and
	// every caller returns the winner's entry.
	p := db.price(k)
	if i >= 0 {
		if !m.dense[i].CompareAndSwap(nil, p) {
			return m.dense[i].Load(), false
		}
	} else {
		m.mu.Lock()
		if won, dup := m.spill[k]; dup {
			m.mu.Unlock()
			return won, false
		}
		if m.spill == nil {
			m.spill = make(map[Key]*Pricing)
		}
		m.spill[k] = p
		m.mu.Unlock()
	}
	m.n.Add(1)
	return p, false
}

// MemoSize returns the number of keys the database's memo holds.
func (db *DB) MemoSize() int { return int(db.memo.n.Load()) }

// price computes a fresh memo entry for k.
func (db *DB) price(k Key) *Pricing {
	p := new(Pricing)
	if p.Rec, p.Err = db.Estimate(k); p.Err != nil {
		return p
	}
	p.Power = p.Rec.AvgPower()
	for _, c := range workload.Classes {
		ct := p.Rec.ClassTime(c)
		if ct <= 0 {
			p.RateErr = fmt.Errorf("model: record %v has no usable time for %v", k, c)
			break
		}
		p.Rate[c] = float64(db.aux.RefTime[c]) / float64(ct)
	}
	return p
}
