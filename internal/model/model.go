// Package model implements the paper's VM allocation model database
// (Sect. III.C): the collected outcomes of the benchmarking campaign,
// keyed by the number of VMs of each workload type, stored as
// comma-separated values in plain text "instead of an actual database
// management system", sorted ascending by the (Ncpu, Nmem, Nio) search
// key and accessed by binary search in O(log num_tests).
//
// Each record carries the paper's Table II fields — total execution time
// of the outcome, average execution time per VM, energy consumed, maximum
// power dissipation, and the energy-delay product — plus per-class mean
// completion times, an extension column in the spirit of the paper's
// "other relevant information", which the datacenter simulator needs for
// the per-VM proportional accounting of Fig. 4.
//
// The auxiliary file of Sect. III.C (optimal scenarios OSP*/OSE* and the
// single-VM reference times TC/TM/TI of Table I) is modelled by Aux.
package model

import (
	"fmt"
	"sort"

	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// Key is the database search key: how many VMs of each workload type are
// co-located on the server (Table II's Ncpu, Nmem, Nio).
type Key struct {
	NCPU, NMEM, NIO int
}

// KeyFor builds a key with n VMs of class c and none of the others.
func KeyFor(c workload.Class, n int) Key {
	var k Key
	k = k.With(c, n)
	return k
}

// With returns a copy of k with the count for class c replaced by n.
func (k Key) With(c workload.Class, n int) Key {
	switch c {
	case workload.ClassCPU:
		k.NCPU = n
	case workload.ClassMEM:
		k.NMEM = n
	case workload.ClassIO:
		k.NIO = n
	default:
		panic(fmt.Sprintf("model: invalid class %d", int(c)))
	}
	return k
}

// Count returns the number of VMs of class c in the key.
func (k Key) Count(c workload.Class) int {
	switch c {
	case workload.ClassCPU:
		return k.NCPU
	case workload.ClassMEM:
		return k.NMEM
	case workload.ClassIO:
		return k.NIO
	default:
		panic(fmt.Sprintf("model: invalid class %d", int(c)))
	}
}

// Add returns the componentwise sum of two keys (the allocation that
// results from co-locating both VM sets).
func (k Key) Add(o Key) Key {
	return Key{k.NCPU + o.NCPU, k.NMEM + o.NMEM, k.NIO + o.NIO}
}

// Total is the total number of VMs in the allocation.
func (k Key) Total() int { return k.NCPU + k.NMEM + k.NIO }

// IsZero reports whether the key describes an empty server.
func (k Key) IsZero() bool { return k == Key{} }

// Valid reports whether all counts are non-negative.
func (k Key) Valid() bool { return k.NCPU >= 0 && k.NMEM >= 0 && k.NIO >= 0 }

// Less orders keys lexicographically — the paper's ascending sort by the
// (Ncpu, Nmem, Nio) search key.
func (k Key) Less(o Key) bool {
	if k.NCPU != o.NCPU {
		return k.NCPU < o.NCPU
	}
	if k.NMEM != o.NMEM {
		return k.NMEM < o.NMEM
	}
	return k.NIO < o.NIO
}

// Dominates reports whether k has at least as many VMs of every class.
func (k Key) Dominates(o Key) bool {
	return k.NCPU >= o.NCPU && k.NMEM >= o.NMEM && k.NIO >= o.NIO
}

func (k Key) String() string {
	return fmt.Sprintf("(%d,%d,%d)", k.NCPU, k.NMEM, k.NIO)
}

// Record is one database row (Table II plus the per-class extension).
type Record struct {
	Key
	// Time is the total execution time of the outcome: the completion
	// time of the last VM in the batch.
	Time units.Seconds
	// AvgTimeVM is Time / (Ncpu+Nmem+Nio).
	AvgTimeVM units.Seconds
	// Energy is the consumed energy for the whole outcome.
	Energy units.Joules
	// MaxPower is the maximum power dissipation measured.
	MaxPower units.Watts
	// EDP is the energy-delay product, Energy × Time.
	EDP units.JouleSeconds
	// TimeByClass is the mean completion time of the batch's VMs of each
	// class (zero where the class is absent). Extension column: lets the
	// simulator price a VM of a specific type under this allocation.
	TimeByClass [workload.NumClasses]units.Seconds
}

// ClassTime returns the mean completion time for VMs of class c under
// this allocation, falling back to AvgTimeVM when the class is absent
// from the record (the paper's "use the matching values proportionally").
// The pointer receiver lets a hot caller read a cached record in place.
func (r *Record) ClassTime(c workload.Class) units.Seconds {
	if t := r.TimeByClass[c]; t > 0 {
		return t
	}
	return r.AvgTimeVM
}

// AvgPower is the mean power over the outcome.
func (r Record) AvgPower() units.Watts { return units.EnergyOver(r.Energy, r.Time) }

// Validate checks a record's internal consistency.
func (r Record) Validate() error {
	if !r.Key.Valid() || r.Key.IsZero() {
		return fmt.Errorf("model: record %v has invalid key", r.Key)
	}
	if r.Time <= 0 || r.Energy <= 0 || r.MaxPower <= 0 {
		return fmt.Errorf("model: record %v has non-positive measurements", r.Key)
	}
	if r.AvgTimeVM <= 0 {
		return fmt.Errorf("model: record %v has non-positive avg time", r.Key)
	}
	wantAvg := float64(r.Time) / float64(r.Total())
	if !units.NearlyEqual(float64(r.AvgTimeVM), wantAvg, 1e-6) {
		return fmt.Errorf("model: record %v avgTimeVM %v inconsistent with Time/%d", r.Key, r.AvgTimeVM, r.Total())
	}
	if !units.NearlyEqual(float64(r.EDP), float64(units.EDP(r.Energy, r.Time)), 1e-6) {
		return fmt.Errorf("model: record %v EDP inconsistent", r.Key)
	}
	return nil
}

// Aux is the auxiliary file of Sect. III.C: per-class optimal scenarios
// and reference times from the base tests (Table I).
type Aux struct {
	// OSP is the number of VMs that minimizes the average execution time
	// per VM (OSPC, OSPM, OSPI).
	OSP [workload.NumClasses]int
	// OSE is the number of VMs that minimizes per-VM energy
	// (OSEC, OSEM, OSEI).
	OSE [workload.NumClasses]int
	// RefTime is the execution time of a single VM of the class
	// (TC, TM, TI).
	RefTime [workload.NumClasses]units.Seconds
}

// OS returns the paper's combined bound for a class:
// OSx = max(OSPx, OSEx) (Sect. III.B).
func (a Aux) OS(c workload.Class) int {
	if a.OSP[c] > a.OSE[c] {
		return a.OSP[c]
	}
	return a.OSE[c]
}

// Validate checks the auxiliary parameters.
func (a Aux) Validate() error {
	for _, c := range workload.Classes {
		if a.OSP[c] <= 0 || a.OSE[c] <= 0 {
			return fmt.Errorf("model: aux has non-positive optimal scenario for %v", c)
		}
		if a.RefTime[c] <= 0 {
			return fmt.Errorf("model: aux has non-positive reference time for %v", c)
		}
	}
	return nil
}

// DB is the model database: records sorted by key, plus the auxiliary
// parameters.
type DB struct {
	recs []Record
	aux  Aux
}

// New builds a database from records and auxiliary parameters. Records
// are validated, sorted by the search key, and must not contain duplicate
// keys.
func New(recs []Record, aux Aux) (*DB, error) {
	if err := aux.Validate(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("model: empty database")
	}
	sorted := append([]Record(nil), recs...)
	for i := range sorted {
		if err := sorted[i].Validate(); err != nil {
			return nil, err
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key.Less(sorted[j].Key) })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Key == sorted[i-1].Key {
			return nil, fmt.Errorf("model: duplicate key %v", sorted[i].Key)
		}
	}
	return &DB{recs: sorted, aux: aux}, nil
}

// Aux returns the auxiliary parameters.
func (db *DB) Aux() Aux { return db.aux }

// Len returns the number of records.
func (db *DB) Len() int { return len(db.recs) }

// Records returns the records in key order. The slice is shared; callers
// must not mutate it.
func (db *DB) Records() []Record { return db.recs }

// Lookup finds the record with exactly the given key by binary search.
func (db *DB) Lookup(k Key) (Record, bool) {
	i := sort.Search(len(db.recs), func(i int) bool { return !db.recs[i].Key.Less(k) })
	if i < len(db.recs) && db.recs[i].Key == k {
		return db.recs[i], true
	}
	return Record{}, false
}

// MaxKey returns the componentwise maximum key present (the grid bounds).
func (db *DB) MaxKey() Key {
	var m Key
	for _, r := range db.recs {
		if r.NCPU > m.NCPU {
			m.NCPU = r.NCPU
		}
		if r.NMEM > m.NMEM {
			m.NMEM = r.NMEM
		}
		if r.NIO > m.NIO {
			m.NIO = r.NIO
		}
	}
	return m
}

// Estimate returns the record for k, interpolating or extrapolating when
// the key is off the campaign grid:
//
//   - exact hits return the stored record;
//   - interior holes interpolate linearly (in total VM count) between
//     the nearest dominated and dominating records;
//   - keys beyond the grid extrapolate from the closest dominated record
//     by scaling time and energy with the VM-count ratio — a pessimistic
//     linear sequentialization assumption, appropriate because beyond
//     the grid the server is deeply oversubscribed.
//
// An error is returned for an invalid or empty key, or when the database
// has no record dominated by k to anchor the estimate.
func (db *DB) Estimate(k Key) (Record, error) {
	if !k.Valid() || k.IsZero() {
		return Record{}, fmt.Errorf("model: cannot estimate key %v", k)
	}
	if r, ok := db.Lookup(k); ok {
		return r, nil
	}
	below, belowOK := db.nearest(k, true)
	above, aboveOK := db.nearest(k, false)
	switch {
	case belowOK && aboveOK:
		span := above.Total() - below.Total()
		if span <= 0 {
			return scaleRecord(below, k), nil
		}
		frac := float64(k.Total()-below.Total()) / float64(span)
		return lerpRecord(below, above, frac, k), nil
	case belowOK:
		return scaleRecord(below, k), nil
	case aboveOK:
		return scaleRecord(above, k), nil
	default:
		return Record{}, fmt.Errorf("model: no records anchor key %v", k)
	}
}

// nearest finds the dominated (below=true) or dominating (below=false)
// record closest to k by total VM count, breaking ties by componentwise
// distance.
func (db *DB) nearest(k Key, below bool) (Record, bool) {
	var best Record
	found := false
	bestScore := 1 << 30
	for _, r := range db.recs {
		if below && !k.Dominates(r.Key) {
			continue
		}
		if !below && !r.Key.Dominates(k) {
			continue
		}
		score := abs(k.Total()-r.Total())*16 + dist(k, r.Key)
		if !found || score < bestScore {
			best, bestScore, found = r, score, true
		}
	}
	return best, found
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func dist(a, b Key) int {
	return abs(a.NCPU-b.NCPU) + abs(a.NMEM-b.NMEM) + abs(a.NIO-b.NIO)
}

// scaleRecord rescales r to the VM total of k.
func scaleRecord(r Record, k Key) Record {
	ratio := float64(k.Total()) / float64(r.Total())
	out := r
	out.Key = k
	out.Time = units.Seconds(float64(r.Time) * ratio)
	out.Energy = units.Joules(float64(r.Energy) * ratio)
	out.AvgTimeVM = out.Time / units.Seconds(k.Total())
	out.EDP = units.EDP(out.Energy, out.Time)
	for c := range out.TimeByClass {
		out.TimeByClass[c] = units.Seconds(float64(r.TimeByClass[c]) * ratio)
	}
	return out
}

// lerpRecord interpolates between records a and b at fraction f, assigned
// to key k.
func lerpRecord(a, b Record, f float64, k Key) Record {
	lerp := func(x, y float64) float64 { return x + f*(y-x) }
	out := Record{Key: k}
	out.Time = units.Seconds(lerp(float64(a.Time), float64(b.Time)))
	out.Energy = units.Joules(lerp(float64(a.Energy), float64(b.Energy)))
	out.MaxPower = units.Watts(lerp(float64(a.MaxPower), float64(b.MaxPower)))
	out.AvgTimeVM = out.Time / units.Seconds(k.Total())
	out.EDP = units.EDP(out.Energy, out.Time)
	for c := range out.TimeByClass {
		ta, tb := float64(a.TimeByClass[c]), float64(b.TimeByClass[c])
		switch {
		case ta > 0 && tb > 0:
			out.TimeByClass[c] = units.Seconds(lerp(ta, tb))
		case ta > 0:
			out.TimeByClass[c] = a.TimeByClass[c]
		default:
			out.TimeByClass[c] = b.TimeByClass[c]
		}
	}
	return out
}
