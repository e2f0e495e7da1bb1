package obs

// Wall-clock request tracing. The existing Tracer records *simulated*
// time for the batch simulator; WallTracer is its serving-path sibling:
// it stamps every request with a request ID (generated, or honored from
// the client's X-Request-Id by the HTTP layer), records one span per
// pipeline stage against the real clock, and keeps a bounded worst-K
// ring of the slowest finished requests so a tail-latency outlier can
// be dumped (/debug/slow) with its full stage breakdown long after it
// happened.
//
// The obs zero-cost discipline applies: a nil *WallTracer starts nil
// *ReqTrace handles, and every method on both is a no-op on a nil
// receiver — tracing disabled costs one predictable nil check per call
// site and allocates nothing. An enabled trace allocates once per
// request (the handle) and takes the ring lock once, at Finish.

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// WallTracer issues and collects per-request wall-clock traces over a
// fixed stage list. Build with NewWallTracer; nil disables tracing.
type WallTracer struct {
	stages []string
	k      int
	clock  func() time.Time
	seq    atomic.Uint64
	epoch  uint64 // id prefix: start nanos, so restarts don't collide

	mu   sync.Mutex
	ring []*ReqTrace // worst-k finished traces by total, unordered
}

// NewWallTracer returns a tracer over the given pipeline stages keeping
// the k slowest finished requests (k <= 0 keeps none — stage timing
// still works, only the slow ring is empty). clock defaults to
// time.Now.
func NewWallTracer(stages []string, k int, clock func() time.Time) *WallTracer {
	if clock == nil {
		clock = time.Now
	}
	w := &WallTracer{
		stages: append([]string(nil), stages...),
		k:      k,
		clock:  clock,
		epoch:  uint64(clock().UnixNano()),
	}
	return w
}

// Start begins one request trace. id == "" generates a process-unique
// request ID; a non-empty id (the client's X-Request-Id) is honored
// verbatim. A nil tracer returns a nil (no-op) trace.
func (w *WallTracer) Start(id string) *ReqTrace {
	if w == nil {
		return nil
	}
	if id == "" {
		id = fmt.Sprintf("req-%x-%d", w.epoch&0xffffffff, w.seq.Add(1))
	}
	return &ReqTrace{
		w:     w,
		id:    id,
		start: w.clock(),
		began: make([]time.Time, len(w.stages)),
		durs:  make([]time.Duration, len(w.stages)),
	}
}

// ReqTrace is one in-flight request's trace: a start time, one
// accumulated duration per stage, and free-form attributes stamped
// along the way. A trace is owned by one goroutine at a time and hands
// off with the request (HTTP handler -> shard worker -> handler); the
// channel handoffs provide the happens-before, so ReqTrace itself is
// unsynchronized until Finish.
type ReqTrace struct {
	w       *WallTracer
	id      string
	start   time.Time
	began   []time.Time
	durs    []time.Duration
	attrs   [][2]string
	outcome string
	total   time.Duration
}

// ID returns the request ID ("" on a nil trace).
func (t *ReqTrace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// StageStart opens stage i at the current clock.
func (t *ReqTrace) StageStart(i int) {
	if t == nil || i < 0 || i >= len(t.began) {
		return
	}
	t.began[i] = t.w.clock()
}

// StageEnd closes stage i, accumulating the elapsed time since its
// StageStart. A StageEnd without a matching open is ignored, and a
// stage may open and close several times (the durations add), so a
// logical stage can span more than one function.
func (t *ReqTrace) StageEnd(i int) {
	if t == nil || i < 0 || i >= len(t.began) || t.began[i].IsZero() {
		return
	}
	t.durs[i] += t.w.clock().Sub(t.began[i])
	t.began[i] = time.Time{}
}

// StageDur records an externally measured duration for stage i (the
// queue-wait span is measured by the shard worker from the enqueue
// timestamp, not by a Start/End pair).
func (t *ReqTrace) StageDur(i int, d time.Duration) {
	if t == nil || i < 0 || i >= len(t.durs) || d < 0 {
		return
	}
	t.durs[i] += d
}

// Dur returns the accumulated duration of stage i.
func (t *ReqTrace) Dur(i int) time.Duration {
	if t == nil || i < 0 || i >= len(t.durs) {
		return 0
	}
	return t.durs[i]
}

// Annotate attaches one key/value attribute (ladder level, route,
// idempotency key, ...) carried into the slow-ring dump.
func (t *ReqTrace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.attrs = append(t.attrs, [2]string{key, value})
}

// Finish seals the trace with its outcome, computes the end-to-end
// wall time, and offers the trace to the worst-K ring. It returns the
// total duration (0 on a nil trace). Finish must be called exactly
// once, after every stage has closed.
func (t *ReqTrace) Finish(outcome string) time.Duration {
	if t == nil {
		return 0
	}
	t.outcome = outcome
	t.total = t.w.clock().Sub(t.start)
	t.w.offer(t)
	return t.total
}

// offer inserts a finished trace into the worst-K ring if it is slower
// than the current K-th slowest.
func (w *WallTracer) offer(t *ReqTrace) {
	if w.k <= 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ring) < w.k {
		w.ring = append(w.ring, t)
		return
	}
	min := 0
	for i, r := range w.ring {
		if r.total < w.ring[min].total {
			min = i
		}
	}
	if t.total > w.ring[min].total {
		w.ring[min] = t
	}
}

// SlowStage is one stage span of a dumped slow request.
type SlowStage struct {
	Stage string  `json:"stage"`
	MS    float64 `json:"ms"`
}

// SlowRequest is one entry of the slow-request dump: the full stage
// breakdown of one tail-latency outlier.
type SlowRequest struct {
	RequestID string            `json:"request_id"`
	Start     time.Time         `json:"start"`
	Outcome   string            `json:"outcome"`
	TotalMS   float64           `json:"total_ms"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Stages    []SlowStage       `json:"stages"`
}

// Slowest snapshots the worst-K ring, slowest first. Every stage
// appears in each entry (zero-duration stages included), so a dump
// always shows the complete pipeline.
func (w *WallTracer) Slowest() []SlowRequest {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	ring := append([]*ReqTrace(nil), w.ring...)
	w.mu.Unlock()
	out := make([]SlowRequest, 0, len(ring))
	for _, t := range ring {
		sr := SlowRequest{
			RequestID: t.id,
			Start:     t.start,
			Outcome:   t.outcome,
			TotalMS:   float64(t.total) / float64(time.Millisecond),
			Stages:    make([]SlowStage, len(w.stages)),
		}
		for i, name := range w.stages {
			sr.Stages[i] = SlowStage{Stage: name, MS: float64(t.durs[i]) / float64(time.Millisecond)}
		}
		if len(t.attrs) > 0 {
			sr.Attrs = make(map[string]string, len(t.attrs))
			for _, kv := range t.attrs {
				sr.Attrs[kv[0]] = kv[1]
			}
		}
		out = append(out, sr)
	}
	// Insertion sort, slowest first: K is small and bounded.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].TotalMS > out[j-1].TotalMS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DumpJSON writes the slow-request ring as indented JSON — the
// /debug/slow payload. A nil tracer writes an empty array.
func (w *WallTracer) DumpJSON(out io.Writer) error {
	slow := w.Slowest()
	if slow == nil {
		slow = []SlowRequest{}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(slow)
}
