package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock steps a fixed amount on every reading, so every span gets a
// deterministic positive duration.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0), step: step}
}

func TestWallTracerNilSafe(t *testing.T) {
	var w *WallTracer
	tr := w.Start("x")
	if tr != nil {
		t.Fatalf("nil tracer Start = %v, want nil", tr)
	}
	// All trace methods must be no-ops on the nil handle.
	tr.StageStart(0)
	tr.StageEnd(0)
	tr.StageDur(0, time.Second)
	tr.Annotate("k", "v")
	if got := tr.ID(); got != "" {
		t.Errorf("nil trace ID = %q", got)
	}
	if got := tr.Finish("placed"); got != 0 {
		t.Errorf("nil trace Finish = %v", got)
	}
	if got := w.Slowest(); got != nil {
		t.Errorf("nil tracer Slowest = %v", got)
	}
	var buf bytes.Buffer
	if err := w.DumpJSON(&buf); err != nil {
		t.Fatalf("nil DumpJSON: %v", err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil DumpJSON = %q, want []", buf.String())
	}
}

func TestWallTracerIDs(t *testing.T) {
	w := NewWallTracer([]string{"a"}, 4, nil)
	if got := w.Start("client-given").ID(); got != "client-given" {
		t.Errorf("explicit id = %q, want client-given", got)
	}
	id1, id2 := w.Start("").ID(), w.Start("").ID()
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Errorf("generated ids %q / %q must be unique and non-empty", id1, id2)
	}
	if !strings.HasPrefix(id1, "req-") {
		t.Errorf("generated id %q lacks req- prefix", id1)
	}
}

func TestWallTracerStages(t *testing.T) {
	clock := newFakeClock(time.Millisecond)
	w := NewWallTracer([]string{"decode", "queue", "search"}, 4, clock.Now)
	tr := w.Start("")

	tr.StageStart(0)
	tr.StageEnd(0)
	if d := tr.Dur(0); d != time.Millisecond {
		t.Errorf("decode dur = %v, want 1ms", d)
	}
	// Re-opened stage accumulates.
	tr.StageStart(0)
	tr.StageEnd(0)
	if d := tr.Dur(0); d != 2*time.Millisecond {
		t.Errorf("accumulated decode dur = %v, want 2ms", d)
	}
	// Unmatched end is ignored; out-of-range indices are ignored.
	tr.StageEnd(1)
	tr.StageStart(99)
	tr.StageEnd(-1)
	if d := tr.Dur(1); d != 0 {
		t.Errorf("unopened queue dur = %v, want 0", d)
	}
	// Externally measured span.
	tr.StageDur(1, 5*time.Millisecond)
	tr.StageDur(1, -time.Second) // negative ignored
	if d := tr.Dur(1); d != 5*time.Millisecond {
		t.Errorf("queue dur = %v, want 5ms", d)
	}
	tr.Annotate("level", "full-search")
	total := tr.Finish("placed")
	if total <= 0 {
		t.Errorf("total = %v, want > 0", total)
	}

	slow := w.Slowest()
	if len(slow) != 1 {
		t.Fatalf("slowest len = %d, want 1", len(slow))
	}
	sr := slow[0]
	if sr.Outcome != "placed" || sr.RequestID != tr.ID() {
		t.Errorf("dump entry = %+v", sr)
	}
	if len(sr.Stages) != 3 {
		t.Fatalf("dump stages = %d, want all 3 (zero-duration included)", len(sr.Stages))
	}
	if sr.Stages[2].Stage != "search" || sr.Stages[2].MS != 0 {
		t.Errorf("untouched stage = %+v, want search/0", sr.Stages[2])
	}
	if sr.Attrs["level"] != "full-search" {
		t.Errorf("attrs = %v", sr.Attrs)
	}
}

func TestWallTracerWorstK(t *testing.T) {
	clock := newFakeClock(0)
	w := NewWallTracer([]string{"s"}, 3, clock.Now)
	// Finish 6 traces with totals 10,20,...,60ms by manually advancing
	// the clock between Start and Finish.
	for i := 1; i <= 6; i++ {
		tr := w.Start("")
		clock.mu.Lock()
		clock.now = clock.now.Add(time.Duration(i) * 10 * time.Millisecond)
		clock.mu.Unlock()
		tr.Finish("placed")
	}
	slow := w.Slowest()
	if len(slow) != 3 {
		t.Fatalf("ring len = %d, want 3", len(slow))
	}
	want := []float64{60, 50, 40}
	for i, sr := range slow {
		if sr.TotalMS != want[i] {
			t.Errorf("slowest[%d] = %vms, want %vms", i, sr.TotalMS, want[i])
		}
	}

	var buf bytes.Buffer
	if err := w.DumpJSON(&buf); err != nil {
		t.Fatalf("DumpJSON: %v", err)
	}
	var dumped []SlowRequest
	if err := json.Unmarshal(buf.Bytes(), &dumped); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(dumped) != 3 || dumped[0].TotalMS != 60 {
		t.Errorf("dumped = %+v", dumped)
	}
}

func TestWallTracerNoRing(t *testing.T) {
	w := NewWallTracer([]string{"s"}, 0, newFakeClock(time.Millisecond).Now)
	tr := w.Start("")
	tr.StageStart(0)
	tr.StageEnd(0)
	if d := tr.Finish("placed"); d <= 0 {
		t.Errorf("timing must still work with k=0, got %v", d)
	}
	if got := len(w.Slowest()); got != 0 {
		t.Errorf("k=0 ring holds %d entries", got)
	}
}
