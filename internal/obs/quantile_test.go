package obs

import (
	"math"
	"reflect"
	"testing"
)

// shuffled returns 1..n in a deterministic LCG-shuffled order, so the
// digest sees an adversarially unsorted but reproducible stream.
func shuffled(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	state := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		vs[i], vs[j] = vs[j], vs[i]
	}
	return vs
}

func TestQuantileAccuracy(t *testing.T) {
	const n = 100_000
	q := NewQuantile()
	for _, v := range shuffled(n) {
		q.Observe(v)
	}
	if q.Count() != n {
		t.Fatalf("Count = %d, want %d", q.Count(), n)
	}
	if q.Min() != 1 || q.Max() != n {
		t.Errorf("extremes = (%g, %g), want (1, %d) exactly", q.Min(), q.Max(), n)
	}
	// Rank error is bounded by ~1/quantileCentroids of total weight;
	// allow 2x slack over the nominal bound.
	tol := 2 * float64(n) / quantileCentroids
	for _, c := range []struct{ p, want float64 }{
		{0.50, n * 0.50}, {0.90, n * 0.90}, {0.99, n * 0.99},
	} {
		got := q.Quantile(c.p)
		if math.Abs(got-c.want) > tol {
			t.Errorf("Quantile(%g) = %g, want %g ± %g", c.p, got, c.want, tol)
		}
	}
	if got := q.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %g, want exact min 1", got)
	}
	if got := q.Quantile(1); got != n {
		t.Errorf("Quantile(1) = %g, want exact max %d", got, n)
	}
}

func TestQuantileBoundedSize(t *testing.T) {
	q := NewQuantile()
	for _, v := range shuffled(500_000) {
		q.Observe(v)
	}
	q.mu.Lock()
	size := len(q.cs) + len(q.buf)
	q.mu.Unlock()
	if size > quantileCentroids+quantileBuffer {
		t.Errorf("digest holds %d entries, want <= %d", size, quantileCentroids+quantileBuffer)
	}
}

func TestQuantileDeterministic(t *testing.T) {
	mk := func() QuantileSnapshot {
		q := NewQuantile()
		for _, v := range shuffled(20_000) {
			q.Observe(v)
		}
		return q.Snapshot()
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same stream produced different snapshots:\n%+v\n%+v", a, b)
	}
}

func TestQuantileSmallStreams(t *testing.T) {
	q := NewQuantile()
	if s := q.Snapshot(); s != (QuantileSnapshot{}) {
		t.Errorf("empty digest snapshot = %+v, want zero", s)
	}
	q.Observe(7)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if got := q.Quantile(p); got != 7 {
			t.Errorf("single-observation Quantile(%g) = %g, want 7", p, got)
		}
	}
	q.Observe(9)
	if got := q.Quantile(0.5); got < 7 || got > 9 {
		t.Errorf("two-observation median %g outside [7, 9]", got)
	}
	q.Observe(math.NaN()) // ignored
	if q.Count() != 2 {
		t.Errorf("NaN observation counted: Count = %d", q.Count())
	}
}

func TestQuantileNilSafe(t *testing.T) {
	var q *Quantile
	q.Observe(1) // must not panic
	if q.Count() != 0 || q.Quantile(0.5) != 0 || q.Min() != 0 || q.Max() != 0 {
		t.Error("nil digest reported non-zero state")
	}
	if s := q.Snapshot(); s != (QuantileSnapshot{}) {
		t.Errorf("nil digest snapshot = %+v, want zero", s)
	}
}

func TestRegistryQuantile(t *testing.T) {
	reg := NewRegistry()
	q := reg.Quantile("wait")
	if q == nil {
		t.Fatal("registry handed out a nil digest")
	}
	if reg.Quantile("wait") != q {
		t.Error("re-registration returned a different handle")
	}
	for i := 1; i <= 100; i++ {
		q.Observe(float64(i))
	}
	snap := reg.Snapshot()
	qs, ok := snap.Quantiles["wait"]
	if !ok {
		t.Fatalf("snapshot missing quantile section: %+v", snap)
	}
	if qs.Count != 100 || qs.Min != 1 || qs.Max != 100 {
		t.Errorf("snapshot = %+v", qs)
	}
	if qs.P50 < 40 || qs.P50 > 60 || qs.P99 < 90 {
		t.Errorf("snapshot percentiles off: %+v", qs)
	}

	var nilReg *Registry
	if nilReg.Quantile("wait") != nil {
		t.Error("nil registry must hand out nil digests")
	}
}

func TestSortedNames(t *testing.T) {
	m := map[string]int64{"b": 1, "a": 2, "c": 3}
	if got := SortedNames(m); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("SortedNames = %v", got)
	}
}

// Count returns the number of observations; 0 on a nil receiver.
func (q *Quantile) Count() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Min returns the exact minimum observed (0 when empty or nil).
func (q *Quantile) Min() float64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return 0
	}
	return q.min
}

// Max returns the exact maximum observed (0 when empty or nil).
func (q *Quantile) Max() float64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.count == 0 {
		return 0
	}
	return q.max
}

// Quantile returns the estimated value at rank fraction p in [0, 1]
// (0 = min, 1 = max). Returns 0 when the digest is empty or nil.
func (q *Quantile) Quantile(p float64) float64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.quantileLocked(p)
}
