// Package obs is the zero-cost telemetry layer of the PACE-VM stack: a
// metrics registry (atomic counters, gauges, fixed-bucket histograms,
// streaming quantile digests), a Chrome-trace-event recorder over
// simulated time, and a pprof/expvar debug server shared by the CLIs —
// including the /debug/dash live HTML dashboard.
//
// The non-negotiable design constraint is that disabled telemetry costs
// nothing on the hot paths the performance PRs paid to optimize. Every
// instrument handle (*Counter, *Gauge, *Histogram, *Quantile, *Tracer)
// is nil-safe:
// methods on a nil receiver are no-ops that compile to a single
// predictable branch, allocate nothing, and touch no shared state.
// Instrumented code therefore holds handles resolved once at setup time
// — from a nil *Registry every handle is nil and the instrumented run is
// byte-identical (and allocation-identical) to an uninstrumented one;
// the cloudsim golden tests pin exactly that.
//
// When enabled, updates are lock-free atomics safe for concurrent use
// (concurrent allocation searches, simulator shards and service
// workers share one registry). Registration (Registry.Counter and friends) takes a mutex
// and may allocate; hot paths must register once up front, not per
// operation.
package obs

import (
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n may be negative only for corrections; counters are
// conventionally monotone).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value. The zero value is ready to use; a
// nil *Gauge is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// SetMax raises the gauge to n if n exceeds the current value — the
// high-water-mark update, safe under concurrent raisers.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at
// registration. Bucket i counts observations v <= Bounds[i]; one
// overflow bucket counts the rest. A nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry is a named collection of instruments. A nil *Registry hands
// out nil handles, so code instrumented against a nil registry runs the
// disabled (no-op, allocation-free) path throughout.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	quantiles  map[string]*Quantile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		quantiles:  map[string]*Quantile{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use (later calls reuse the first
// registration's bounds). A nil registry returns a nil handle.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// Quantile returns the named streaming quantile digest, creating it on
// first use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Quantile(name string) *Quantile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q, ok := r.quantiles[name]
	if !ok {
		q = NewQuantile()
		r.quantiles[name] = q
	}
	return q
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry's contents, in the
// form expvar publishing and run manifests serialize. Maps serialize
// with sorted keys (encoding/json's map behaviour), so two snapshots of
// the same run diff cleanly byte for byte; SortedNames gives the same
// deterministic order to non-JSON renderers (the dashboard).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Quantiles  map[string]QuantileSnapshot  `json:"quantiles,omitempty"`
}

// SortedNames returns the keys of one snapshot section in ascending
// order — the stable iteration order renderers should use.
func SortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies the registry's current values. A nil registry yields
// the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), h.bounds...),
				Counts: make([]int64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	if len(r.quantiles) > 0 {
		s.Quantiles = make(map[string]QuantileSnapshot, len(r.quantiles))
		for name, q := range r.quantiles {
			s.Quantiles[name] = q.Snapshot()
		}
	}
	return s
}

// Merge folds another registry's instruments into r — the cross-shard
// fold of the sharded simulator. Counters add; gauges fold as
// high-water marks (every gauge in this stack is one — peak active
// servers, peak queue depth); histograms add per-bucket counts, counts
// and sums (the destination is created with the source's bounds when
// absent; a pre-existing destination keeps its own bounds and buckets
// fold positionally up to the shorter length, which is exact whenever
// the same instrument name is registered with the same bounds
// everywhere, as the simulator's are); quantile digests merge sketches
// (see Quantile.Merge). Instruments absent in r are created. The fold
// is deterministic for deterministic inputs and call order — the
// sharded runner merges per-shard registries in shard order at the
// final barrier. Merging from nil, into nil, or a registry into itself
// is a no-op; from is left unchanged.
func (r *Registry) Merge(from *Registry) {
	if r == nil || from == nil || r == from {
		return
	}
	from.mu.Lock()
	counters := make(map[string]*Counter, len(from.counters))
	for name, c := range from.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(from.gauges))
	for name, g := range from.gauges {
		gauges[name] = g
	}
	histograms := make(map[string]*Histogram, len(from.histograms))
	for name, h := range from.histograms {
		histograms[name] = h
	}
	quantiles := make(map[string]*Quantile, len(from.quantiles))
	for name, q := range from.quantiles {
		quantiles[name] = q
	}
	from.mu.Unlock()

	for _, name := range SortedNames(counters) {
		r.Counter(name).Add(counters[name].Value())
	}
	for _, name := range SortedNames(gauges) {
		r.Gauge(name).SetMax(gauges[name].Value())
	}
	for _, name := range SortedNames(histograms) {
		h := histograms[name]
		dst := r.Histogram(name, h.bounds...)
		n := len(h.counts)
		if len(dst.counts) < n {
			n = len(dst.counts)
		}
		for i := 0; i < n; i++ {
			dst.counts[i].Add(h.counts[i].Load())
		}
		dst.count.Add(h.Count())
		for v := h.Sum(); ; {
			old := dst.sum.Load()
			new := math.Float64bits(math.Float64frombits(old) + v)
			if dst.sum.CompareAndSwap(old, new) {
				break
			}
		}
	}
	for _, name := range SortedNames(quantiles) {
		r.Quantile(name).Merge(quantiles[name])
	}
}

// published maps expvar names to the indirection cell their expvar.Func
// reads, so re-publishing under a reused name (tests, repeated runs in
// one process) swaps the registry instead of hitting expvar.Publish's
// duplicate-name panic.
var published sync.Map // string -> *atomic.Pointer[Registry]

// Publish exposes the registry's Snapshot as the named expvar variable
// (served on /debug/vars). Publishing a second registry under the same
// name atomically replaces the first. Publishing a nil registry is a
// no-op.
func (r *Registry) Publish(name string) {
	if r == nil {
		return
	}
	cell, loaded := published.LoadOrStore(name, &atomic.Pointer[Registry]{})
	p := cell.(*atomic.Pointer[Registry])
	p.Store(r)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any {
			return p.Load().Snapshot()
		}))
	}
}
