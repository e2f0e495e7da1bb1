package obs

// Quantile is a fixed-size streaming quantile digest: a sorted-compaction
// centroid sketch (a deterministic, RNG-free cousin of the t-digest) that
// answers P50/P90/P99 over an unbounded observation stream in bounded
// memory. Incoming observations buffer unsorted; when the buffer fills it
// is sorted and merged with the existing centroids, and the merged list is
// compacted into at most quantileCentroids equal-weight groups, so rank
// error is bounded by ~1/quantileCentroids of the total weight regardless
// of stream length. The digest is deterministic: the same observation
// sequence always produces the same centroids, the same snapshot, and the
// same quantile answers — the property the simulator's golden tests and
// manifest diffs rely on.
//
// Like every obs instrument, a nil *Quantile is a no-op on all methods,
// so disabled telemetry costs one predictable nil check per call site.
// Enabled digests take a mutex per operation (retirement-rate call sites,
// not the event-loop hot path) and are safe for concurrent use.

import (
	"math"
	"sort"
	"sync"
)

const (
	// quantileBuffer is the unsorted staging capacity; each compaction
	// sorts this many raw observations.
	quantileBuffer = 256
	// quantileCentroids bounds the compacted sketch size and therefore
	// the worst-case rank error (~0.4 % of total weight).
	quantileCentroids = 256
)

// qcentroid is one weighted point of the sketch, the mean of w collapsed
// observations.
type qcentroid struct {
	mean float64
	w    int64
}

// Quantile is the streaming digest. The zero value is NOT ready to use;
// obtain handles from Registry.Quantile (or NewQuantile), which size the
// fixed buffers once.
type Quantile struct {
	mu    sync.Mutex
	buf   []float64 // unsorted staging, cap quantileBuffer
	cs    []qcentroid
	count int64
	min   float64
	max   float64
}

// NewQuantile returns an empty digest.
func NewQuantile() *Quantile {
	return &Quantile{
		buf: make([]float64, 0, quantileBuffer),
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// Observe records one observation. NaN is ignored (a poisoned digest
// answers nothing useful).
func (q *Quantile) Observe(v float64) {
	if q == nil || math.IsNaN(v) {
		return
	}
	q.mu.Lock()
	q.count++
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
	q.buf = append(q.buf, v)
	if len(q.buf) == cap(q.buf) {
		q.compact()
	}
	q.mu.Unlock()
}

// compact folds the staging buffer into the centroid sketch: sort the
// buffer, merge it with the (already sorted) centroids, and group the
// merged sequence into at most quantileCentroids equal-weight centroids.
// Called with the mutex held.
func (q *Quantile) compact() {
	if len(q.buf) == 0 {
		return
	}
	sort.Float64s(q.buf)
	merged := make([]qcentroid, 0, len(q.cs)+len(q.buf))
	i, j := 0, 0
	for i < len(q.cs) || j < len(q.buf) {
		if j >= len(q.buf) || (i < len(q.cs) && q.cs[i].mean <= q.buf[j]) {
			merged = append(merged, q.cs[i])
			i++
		} else {
			merged = append(merged, qcentroid{mean: q.buf[j], w: 1})
			j++
		}
	}
	q.buf = q.buf[:0]
	q.cs = regroup(merged)
}

// regroup collapses a sorted centroid sequence into at most
// quantileCentroids equal-weight groups, in place; short sequences pass
// through untouched. Consecutive entries collapse until each group
// carries ceil(total/quantileCentroids) weight.
func regroup(merged []qcentroid) []qcentroid {
	if len(merged) <= quantileCentroids {
		return merged
	}
	var total int64
	for _, c := range merged {
		total += c.w
	}
	budget := (total + quantileCentroids - 1) / quantileCentroids
	out := merged[:0]
	cur := qcentroid{}
	for _, c := range merged {
		if cur.w > 0 && cur.w+c.w > budget {
			out = append(out, cur)
			cur = qcentroid{}
		}
		cur.mean = (cur.mean*float64(cur.w) + c.mean*float64(c.w)) / float64(cur.w+c.w)
		cur.w += c.w
	}
	if cur.w > 0 {
		out = append(out, cur)
	}
	return out
}

// Merge absorbs another digest's state into q — the cross-shard fold of
// the sharded simulator. o's staged observations and centroids merge
// into q's centroid list in value order and the result recompacts, so
// the outcome is deterministic given the two digests' states. It is a
// digest of digests: its centroids need not equal those of one digest
// fed the interleaved stream, but the rank-error bound composes (each
// input's error is bounded, and grouping only coarsens by the same
// budget rule). Count, min and max fold exactly. o is left unchanged;
// merging nil into anything, anything into nil, or a digest into itself
// is a no-op.
func (q *Quantile) Merge(o *Quantile) {
	if q == nil || o == nil || q == o {
		return
	}
	o.mu.Lock()
	ocs := append([]qcentroid(nil), o.cs...)
	obuf := append([]float64(nil), o.buf...)
	count, min, max := o.count, o.min, o.max
	o.mu.Unlock()
	if count == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.count += count
	if min < q.min {
		q.min = min
	}
	if max > q.max {
		q.max = max
	}
	// Fold o's staging into its centroid sequence, value-ordered.
	sort.Float64s(obuf)
	oc := make([]qcentroid, 0, len(ocs)+len(obuf))
	i, j := 0, 0
	for i < len(ocs) || j < len(obuf) {
		if j >= len(obuf) || (i < len(ocs) && ocs[i].mean <= obuf[j]) {
			oc = append(oc, ocs[i])
			i++
		} else {
			oc = append(oc, qcentroid{mean: obuf[j], w: 1})
			j++
		}
	}
	// Flush q's own staging, merge the two sorted lists, regroup.
	q.compact()
	merged := make([]qcentroid, 0, len(q.cs)+len(oc))
	i, j = 0, 0
	for i < len(q.cs) || j < len(oc) {
		if j >= len(oc) || (i < len(q.cs) && q.cs[i].mean <= oc[j].mean) {
			merged = append(merged, q.cs[i])
			i++
		} else {
			merged = append(merged, oc[j])
			j++
		}
	}
	q.cs = regroup(merged)
}

// quantileLocked folds any staged observations and walks the cumulative
// centroid weights to rank p·(count−1), interpolating linearly between
// adjacent centroid means. Exact at the extremes (min/max are tracked
// precisely). Called with the mutex held.
func (q *Quantile) quantileLocked(p float64) float64 {
	if q.count == 0 {
		return 0
	}
	if p <= 0 {
		return q.min
	}
	if p >= 1 {
		return q.max
	}
	q.compact()
	target := p * float64(q.count-1)
	// Centroid i spans ranks [cum, cum+w); its mean sits at the group's
	// midpoint rank cum + (w-1)/2.
	var cum int64
	prevMid, prevVal := -0.5, q.min
	for _, c := range q.cs {
		mid := float64(cum) + float64(c.w-1)/2
		if target <= mid {
			if mid == prevMid {
				return c.mean
			}
			frac := (target - prevMid) / (mid - prevMid)
			if frac < 0 {
				frac = 0
			}
			return prevVal + frac*(c.mean-prevVal)
		}
		prevMid, prevVal = mid, c.mean
		cum += c.w
	}
	return q.max
}

// QuantileSnapshot is the exported state of one digest: the count, the
// exact extremes, and the P50/P90/P99 estimates the dashboards and run
// manifests report.
type QuantileSnapshot struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot captures the digest's current state; the zero snapshot on a
// nil or empty receiver.
func (q *Quantile) Snapshot() QuantileSnapshot {
	if q == nil {
		return QuantileSnapshot{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return QuantileSnapshot{}
	}
	return QuantileSnapshot{
		Count: q.count,
		Min:   q.min,
		Max:   q.max,
		P50:   q.quantileLocked(0.50),
		P90:   q.quantileLocked(0.90),
		P99:   q.quantileLocked(0.99),
	}
}
