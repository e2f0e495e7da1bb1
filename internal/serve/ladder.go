package serve

// The overload degradation ladder: the service's answer to "what do we
// give up first when we fall behind?". Measured queue wait drives a
// three-level ladder — full PA partition search, indexed first-fit,
// shed — stepping one level at a time as an EWMA of the wait crosses
// the configured watermarks, and stepping back up with hysteresis (the
// wait must fall below the lower watermark scaled by Config.Hysteresis)
// plus a dwell time so the ladder cannot flap around a watermark. The ladder is
// deterministic in its inputs: the level is a pure function of the
// observation sequence and the observation clock, with no sampling or
// randomness, so a recorded decision log fully explains every step.

import (
	"fmt"
	"sync"
	"time"

	"pacevm/internal/cloudsim"
	"pacevm/internal/obs"
)

// Degradation levels, in order of surrender.
const (
	// LevelFull runs the full PA partition search. A request holds at
	// most maxJobVMs = 4 identical VMs, so the search scores at most 5
	// distinct partitions: a search budget would bite only at 4 or
	// less, where it answers with core's QoS-aware first-fit instead of
	// a search.
	LevelFull = iota
	// LevelFirstFit skips the search entirely: indexed first-fit in
	// O(1) per VM.
	LevelFirstFit
	// LevelShed refuses new placements at admission (429) until the
	// queue drains; releases and requeues still run.
	LevelShed

	numLevels
)

// levelName names a ladder level for logs and stats.
func levelName(l int) string {
	switch l {
	case LevelFull:
		return "full-search"
	case LevelFirstFit:
		return "first-fit"
	case LevelShed:
		return "shed"
	default:
		return fmt.Sprintf("level-%d", l)
	}
}

// ladderEWMAWeight is the per-observation weight of the queue-wait
// EWMA: heavy enough to react within a handful of requests, light
// enough that one straggler cannot step the ladder alone.
const ladderEWMAWeight = 0.25

type ladder struct {
	clock func() time.Time
	start time.Time
	marks [2]float64 // seconds; crossing marks[l] steps from level l to l+1
	hyst  float64
	dwell time.Duration

	mu       sync.Mutex
	level    int
	ewma     float64
	lastStep time.Time

	gauge *obs.Gauge
	steps *obs.Counter
	rec   *cloudsim.DecisionRecorder
}

func newLadder(cfg *Config, clock func() time.Time, reg *obs.Registry, rec *cloudsim.DecisionRecorder) *ladder {
	l := &ladder{
		clock: clock,
		start: clock(),
		hyst:  cfg.Hysteresis,
		dwell: cfg.LadderDwell,
		gauge: reg.Gauge("serve_degradation_level"),
		steps: reg.Counter("serve_ladder_steps_total"),
		rec:   rec,
	}
	for i, w := range cfg.Watermarks {
		l.marks[i] = w.Seconds()
	}
	l.gauge.Set(0)
	return l
}

// observe folds one measured queue wait into the EWMA and returns the
// level the observed request should be served at, stepping the ladder
// at most one level per call and never before the dwell elapses.
func (l *ladder) observe(wait time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ewma = (1-ladderEWMAWeight)*l.ewma + ladderEWMAWeight*wait.Seconds()
	now := l.clock()
	if now.Sub(l.lastStep) < l.dwell {
		return l.level
	}
	switch {
	case l.level < LevelShed && l.ewma > l.marks[l.level]:
		l.step(now, l.level+1)
	case l.level > LevelFull && l.ewma < l.marks[l.level-1]*l.hyst:
		l.step(now, l.level-1)
	}
	return l.level
}

// step commits a transition: gauge, counter and one degrade record in
// the decision log (From/To are the old/new levels, T wall seconds
// since service start).
func (l *ladder) step(now time.Time, to int) {
	from := l.level
	l.level = to
	l.lastStep = now
	l.gauge.Set(int64(to))
	l.steps.Inc()
	if l.rec == nil {
		return
	}
	l.rec.Record(cloudsim.Decision{
		Kind: cloudsim.DecisionDegrade, T: now.Sub(l.start).Seconds(),
		Shard: -1, Req: -1, From: from, To: to,
		Reason: fmt.Sprintf("queue-wait-ewma %.4fs; %s -> %s", l.ewma, levelName(from), levelName(to)),
	})
}

// current returns the level without folding an observation.
func (l *ladder) current() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.level
}

// waitEWMA returns the current queue-wait EWMA in seconds.
func (l *ladder) waitEWMA() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ewma
}
