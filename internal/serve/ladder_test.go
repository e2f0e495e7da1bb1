package serve

import (
	"sync"
	"testing"
	"time"

	"pacevm/internal/cloudsim"
	"pacevm/internal/obs"
)

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func ladderConfig() *Config {
	return &Config{
		Watermarks:  [2]time.Duration{200 * time.Millisecond, 800 * time.Millisecond},
		Hysteresis:  0.5,
		LadderDwell: 100 * time.Millisecond,
	}
}

func TestLadderStepsDownOneLevelAtATime(t *testing.T) {
	clock := newFakeClock()
	rec := cloudsim.NewDecisionRecorder()
	l := newLadder(ladderConfig(), clock.now, obs.NewRegistry(), rec)
	// Massive waits: each dwell window may step at most one level.
	for want := LevelFirstFit; want <= LevelShed; want++ {
		clock.advance(150 * time.Millisecond)
		if got := l.observe(5 * time.Second); got != want {
			t.Fatalf("after dwell %d: level %s, want %s", want, levelName(got), levelName(want))
		}
		// Within the same dwell window the level must hold.
		if got := l.observe(5 * time.Second); got != want {
			t.Fatalf("stepped twice inside one dwell window: %s", levelName(got))
		}
	}
	// Shed is the floor.
	clock.advance(150 * time.Millisecond)
	if got := l.observe(5 * time.Second); got != LevelShed {
		t.Fatalf("below shed: %d", got)
	}
	steps := 0
	for _, d := range rec.Decisions() {
		if d.Kind != cloudsim.DecisionDegrade {
			t.Fatalf("unexpected decision kind %q", d.Kind)
		}
		if d.To != d.From+1 {
			t.Fatalf("step skipped a level: %d -> %d", d.From, d.To)
		}
		steps++
	}
	if steps != 2 {
		t.Fatalf("recorded %d degrade steps, want 2", steps)
	}
}

func TestLadderRecoversWithHysteresis(t *testing.T) {
	clock := newFakeClock()
	rec := cloudsim.NewDecisionRecorder()
	l := newLadder(ladderConfig(), clock.now, obs.NewRegistry(), rec)
	clock.advance(150 * time.Millisecond)
	if got := l.observe(time.Second); got != LevelFirstFit {
		t.Fatalf("did not degrade: %s", levelName(got))
	}
	// The EWMA must fall below marks[0] * hysteresis = 100ms to recover —
	// a wait just under the 200ms watermark is not enough.
	for i := 0; i < 50; i++ {
		clock.advance(150 * time.Millisecond)
		if got := l.observe(150 * time.Millisecond); got != LevelFirstFit {
			t.Fatalf("recovered inside the hysteresis band: %s", levelName(got))
		}
	}
	// Idle observations drain the EWMA below the recovery threshold.
	var got int
	for i := 0; i < 50; i++ {
		clock.advance(150 * time.Millisecond)
		if got = l.observe(0); got == LevelFull {
			break
		}
	}
	if got != LevelFull {
		t.Fatalf("never recovered: %s", levelName(got))
	}
	var down, up bool
	for _, d := range rec.Decisions() {
		if d.To > d.From {
			down = true
		}
		if d.To < d.From {
			up = true
		}
	}
	if !down || !up {
		t.Fatalf("decision log missing a direction: down=%v up=%v", down, up)
	}
}

func TestLimiterBurstAndRefill(t *testing.T) {
	clock := newFakeClock()
	l := newLimiter(10, 2, clock.now)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("c"); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, wait := l.allow("c")
	if ok || wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("empty bucket: ok=%v wait=%v", ok, wait)
	}
	// Other clients are unaffected.
	if ok, _ := l.allow("d"); !ok {
		t.Fatal("independent client denied")
	}
	clock.advance(wait)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("token not refilled after the advertised wait")
	}
	// A nil limiter (rate off) admits everything.
	var off *limiter
	if ok, _ := off.allow("anyone"); !ok {
		t.Fatal("nil limiter denied")
	}
	if newLimiter(0, 5, clock.now) != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
}
