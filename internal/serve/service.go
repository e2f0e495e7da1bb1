// Package serve is the always-on placement service: the paper's
// allocator lifted out of the batch simulator and put behind a
// long-running admission pipeline. VM requests arrive over HTTP/JSON,
// are rate-limited per client, routed to a per-shard bounded queue by
// the sharded coordinator's capacity heuristic, and placed against live
// fleet state with the PROACTIVE search — degrading deterministically
// to first-fit and finally load shedding as
// measured queue wait climbs (see ladder.go). Every state change is
// journaled before the client sees the acknowledgement and folded into
// periodic checksummed snapshots (journal.go), so a kill -9 restarts
// into exactly the acknowledged state; idempotency keys make client
// retries replays, never double-placements.
//
// Concurrency model: one worker goroutine per shard is the sole mutator
// of that shard's fleet state, so placement decisions within a shard
// are serial and deterministic given the arrival order; HTTP handler
// goroutines only validate, rate-limit, route and block on a reply
// channel. Lock order, strictly: shard.smu (ascending shard id) →
// shard.qmu (ascending) → Service.mu → journal.mu. The watchdog and
// the snapshotter are the only multi-shard lockers and both follow it.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// parkRetryEvery paces re-attempts of parked requeues (evicted VMs
// waiting for in-shard capacity) so they cannot busy-spin a full shard.
const parkRetryEvery = 100 * time.Millisecond

// drainPoll is the drain loop's queue-empty polling period.
const drainPoll = 5 * time.Millisecond

// Config parameterizes a Service. Zero values take the documented
// defaults; Validate reports anything unusable.
type Config struct {
	// DB is the interference model database (required).
	DB *model.DB
	// Goal is the PA optimization goal (defaults to GoalBalanced).
	Goal core.Goal
	// Servers is the fleet size (required, >= 1). Shards partitions it
	// for independent placement workers (default 1, <= Servers).
	Servers int
	Shards  int
	// MaxVMsPerServer caps residency (default 16; must be a positive
	// multiple of strategy.CPUSlotsPerServer so the first-fit rung maps
	// onto a multiplexing level).
	MaxVMsPerServer int
	// QueueCap bounds each shard's admission queue (default 256
	// requests); a full queue answers 429 with Retry-After.
	QueueCap int
	// RequestTimeout is the per-request deadline (default 2s): the PA
	// search is cancelled at the deadline and a request whose deadline
	// passes while queued is shed with 503.
	RequestTimeout time.Duration
	// Watermarks are the queue-wait EWMA thresholds that step the
	// degradation ladder down, full search to first-fit and first-fit
	// to shed (defaults 200ms, 800ms; strictly increasing). Hysteresis
	// scales the step-up threshold (default 0.5) and LadderDwell is the
	// minimum time between steps (default 200ms).
	Watermarks  [2]time.Duration
	Hysteresis  float64
	LadderDwell time.Duration
	// RatePerSec/RateBurst configure the per-client token bucket;
	// RatePerSec <= 0 disables rate limiting (RateBurst defaults to 8).
	RatePerSec float64
	RateBurst  int
	// SnapshotPath enables durability: periodic snapshots there, plus a
	// write-ahead journal at JournalPath (default SnapshotPath +
	// ".journal") synced per record when Fsync is set. SnapshotEvery
	// defaults to 2s. Restore loads both instead of starting fresh and
	// refuses to serve unless every watchdog invariant passes.
	SnapshotPath  string
	JournalPath   string
	SnapshotEvery time.Duration
	Fsync         bool
	Restore       bool
	// WatchdogEvery paces the online invariant sweeps (default 1s;
	// negative disables the periodic sweep — restore and drain still
	// run one).
	WatchdogEvery time.Duration
	// Recorder, when non-nil, receives the admission/ladder/shed flight
	// log (pacevm-explain replays it). Obs defaults to a fresh registry.
	Recorder *cloudsim.DecisionRecorder
	Obs      *obs.Registry
	// SlowRing keeps the K slowest requests with full stage breakdowns
	// for /debug/slow (0 disables the ring). SLOTarget enables rolling
	// SLO tracking: fraction SLOObjective (default 0.99) of requests
	// must finish under SLOTarget over a sliding SLOWindow (default
	// 60s). AccessLog, when non-nil, receives one structured JSON line
	// per request. Any of these being set turns on wall-clock request
	// tracing; all unset, the request path pays one nil check.
	SlowRing     int
	SLOTarget    time.Duration
	SLOObjective float64
	SLOWindow    time.Duration
	AccessLog    io.Writer
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// withDefaults fills zero values and validates; it returns the
// effective configuration.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.DB == nil {
		return cfg, errors.New("serve: nil model database")
	}
	if cfg.Servers < 1 {
		return cfg, fmt.Errorf("serve: servers %d must be >= 1", cfg.Servers)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 || cfg.Shards > cfg.Servers {
		return cfg, fmt.Errorf("serve: shards %d out of [1,%d]", cfg.Shards, cfg.Servers)
	}
	if cfg.Goal == (core.Goal{}) {
		cfg.Goal = core.GoalBalanced
	}
	if cfg.MaxVMsPerServer == 0 {
		cfg.MaxVMsPerServer = 16
	}
	if cfg.MaxVMsPerServer < strategy.CPUSlotsPerServer || cfg.MaxVMsPerServer%strategy.CPUSlotsPerServer != 0 {
		return cfg, fmt.Errorf("serve: max VMs per server %d must be a positive multiple of %d", cfg.MaxVMsPerServer, strategy.CPUSlotsPerServer)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 256
	}
	if cfg.QueueCap < 1 {
		return cfg, fmt.Errorf("serve: queue cap %d must be >= 1", cfg.QueueCap)
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout < 0 {
		return cfg, fmt.Errorf("serve: request timeout %v must not be negative (0 means the 2s default)", cfg.RequestTimeout)
	}
	if cfg.Watermarks == ([2]time.Duration{}) {
		cfg.Watermarks = [2]time.Duration{200 * time.Millisecond, 800 * time.Millisecond}
	}
	for i, w := range cfg.Watermarks {
		if w <= 0 {
			return cfg, fmt.Errorf("serve: watermark %d (%v) must be > 0", i, w)
		}
		if i > 0 && w <= cfg.Watermarks[i-1] {
			return cfg, fmt.Errorf("serve: watermarks must strictly increase (%v then %v)", cfg.Watermarks[i-1], w)
		}
	}
	if cfg.Hysteresis == 0 {
		cfg.Hysteresis = 0.5
	}
	if cfg.Hysteresis < 0 || cfg.Hysteresis > 1 {
		return cfg, fmt.Errorf("serve: hysteresis %v out of [0,1] (0 means the 0.5 default)", cfg.Hysteresis)
	}
	if cfg.LadderDwell == 0 {
		cfg.LadderDwell = 200 * time.Millisecond
	}
	if cfg.LadderDwell < 0 {
		return cfg, fmt.Errorf("serve: ladder dwell %v must not be negative (0 means the 200ms default)", cfg.LadderDwell)
	}
	if cfg.RateBurst == 0 {
		cfg.RateBurst = 8
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 2 * time.Second
	}
	if cfg.SnapshotEvery < 0 {
		return cfg, fmt.Errorf("serve: snapshot period %v must not be negative (0 means the 2s default)", cfg.SnapshotEvery)
	}
	if cfg.JournalPath == "" && cfg.SnapshotPath != "" {
		cfg.JournalPath = cfg.SnapshotPath + ".journal"
	}
	if cfg.Restore && cfg.SnapshotPath == "" {
		return cfg, errors.New("serve: restore requested without a snapshot path")
	}
	if cfg.WatchdogEvery == 0 {
		cfg.WatchdogEvery = time.Second
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.SlowRing < 0 {
		return cfg, fmt.Errorf("serve: slow ring %d must not be negative (0 disables the slow-request ring)", cfg.SlowRing)
	}
	if cfg.SLOTarget < 0 {
		return cfg, fmt.Errorf("serve: SLO target %v must not be negative (0 disables SLO tracking)", cfg.SLOTarget)
	}
	if cfg.SLOTarget > 0 {
		if cfg.SLOObjective == 0 {
			cfg.SLOObjective = 0.99
		}
		if cfg.SLOObjective <= 0 || cfg.SLOObjective >= 1 {
			return cfg, fmt.Errorf("serve: SLO objective %v out of (0,1) (0 means the 0.99 default)", cfg.SLOObjective)
		}
		if cfg.SLOWindow == 0 {
			cfg.SLOWindow = time.Minute
		}
		if cfg.SLOWindow < 0 {
			return cfg, fmt.Errorf("serve: SLO window %v must not be negative (0 means the 60s default)", cfg.SLOWindow)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg, nil
}

// wireClass is a workload class as requests, snapshots and the journal
// spell it (cpu, mem or io). parseClass and the two text methods are the
// only places the spelling is converted.
type wireClass workload.Class

func parseClass(s string) (wireClass, error) {
	for _, c := range workload.Classes {
		if c.String() == s {
			return wireClass(c), nil
		}
	}
	return 0, fmt.Errorf("serve: unknown workload class %q (want cpu, mem or io)", s)
}

func (c wireClass) MarshalText() ([]byte, error) { return []byte(workload.Class(c).String()), nil }

func (c *wireClass) UnmarshalText(b []byte) error {
	v, err := parseClass(string(b))
	*c = v
	return err
}

// placement is one committed request: the unit of idempotency, release
// and crash-requeue bookkeeping, and the service's only record of where
// each VM lives — the shard's fleet index is derived from it. Snapshots
// store it as is and a place journal record carries it. Servers holds
// global ids; -1 marks a slot evicted by a crash and awaiting requeue.
type placement struct {
	Key      string    `json:"key"`
	Job      int       `json:"job,omitempty"`
	Class    wireClass `json:"class"`
	NominalS float64   `json:"nominal_s,omitempty"`
	MaxS     float64   `json:"max_s,omitempty"`
	Shard    int       `json:"shard"`
	Servers  []int     `json:"servers"`
	VMIDs    []int     `json:"vm_ids"`
	Released bool      `json:"released,omitempty"`
	Degraded bool      `json:"degraded,omitempty"`
	Relaxed  bool      `json:"relaxed,omitempty"`
	// The ladder level and queue wait of the live decision; not persisted.
	Level  int     `json:"-"`
	WaitMS float64 `json:"-"`
}

// response renders the placement as the client-visible payload; replays
// return byte-identical placements.
func (pl *placement) response(replayed bool) *PlaceResponse {
	return &PlaceResponse{
		Key:      pl.Key,
		Servers:  append([]int(nil), pl.Servers...),
		VMIDs:    append([]int(nil), pl.VMIDs...),
		Level:    levelName(pl.Level),
		Degraded: pl.Degraded,
		Relaxed:  pl.Relaxed,
		WaitMS:   pl.WaitMS,
		Released: pl.Released,
		Replayed: replayed,
	}
}

// requeue is the work owed for the VM a crash evicted from slot:
// re-place it on the placement's shard.
func (pl *placement) requeue(slot int) queued {
	return queued{
		Key: pl.Key, Job: pl.Job, Class: pl.Class, VMs: 1,
		NominalS: pl.NominalS, MaxS: pl.MaxS,
		Requeue: true, Shard: pl.Shard, Slot: slot, VMID: pl.VMIDs[slot],
	}
}

// queued is the persisted part of a pending request — admitted work the
// service still owes an answer for — and what snapshots store. A
// requeue re-places one evicted VM (Slot, VMID) of an existing
// placement and stays pinned to its Shard.
type queued struct {
	Key      string    `json:"key"`
	Job      int       `json:"job,omitempty"`
	Class    wireClass `json:"class"`
	VMs      int       `json:"vms"`
	NominalS float64   `json:"nominal_s,omitempty"`
	MaxS     float64   `json:"max_s,omitempty"`
	Requeue  bool      `json:"requeue,omitempty"`
	Shard    int       `json:"shard,omitempty"`
	Slot     int       `json:"slot,omitempty"`
	VMID     int       `json:"vm_id,omitempty"`
}

// vm is the strategy-side request for one of q's VMs. The strategies
// assign by VM index, so it carries no ID.
func (q *queued) vm() core.VMRequest {
	return core.VMRequest{
		Class:       workload.Class(q.Class),
		NominalTime: units.Seconds(q.NominalS),
		MaxTime:     units.Seconds(q.MaxS),
	}
}

// pending is one admitted request waiting in a shard queue. done is nil
// for requeues and for requests restored from a snapshot — nobody is
// blocked on those; the client's retry replays the eventual placement.
type pending struct {
	queued
	enqueued time.Time
	deadline time.Time
	done     chan Outcome
	// rt is the request's wall-clock trace (nil when tracing is off).
	// It hands off with the pending: the enqueue and reply channels
	// provide the happens-before between handler and worker.
	rt *obs.ReqTrace
}

// shard owns a contiguous server range [base, base+n) and all placement
// state for it. Only its worker goroutine mutates smu-guarded state.
type shard struct {
	svc  *Service
	id   int
	base int
	n    int

	qmu       sync.Mutex
	qcond     *sync.Cond
	ctrl      []func() // control plane: release, crash, recover
	pend      []*pending
	parked    []*pending
	stopped   bool
	nextRetry time.Time

	smu sync.Mutex
	// idx is the capacity index placement searches, derived from the
	// shard's live placements.
	idx     *strategy.FleetIndex
	scratch []int
	// vmbuf holds the request the worker is placing; only the shard
	// worker touches it.
	vmbuf [trace.MaxVMs]core.VMRequest

	pa *strategy.Proactive
	ff *strategy.FirstFit

	// deadlineNs is the in-progress request's deadline, read by the PA
	// search's Cancel hook; 0 when no cancellable search runs.
	deadlineNs atomic.Int64

	// Routing estimates, updated under smu, read lock-free.
	freeSlots atomic.Int64
	queuedVMs atomic.Int64
	liveVMs   atomic.Int64
}

// Service is the placement service. Build with NewService, expose with
// Handler, stop with Drain.
type Service struct {
	cfg   Config
	clock func() time.Time
	start time.Time

	reg *obs.Registry
	rec *cloudsim.DecisionRecorder
	wd  *obs.Watchdog
	lad *ladder
	lim *limiter
	j   *journal
	ro  *serveObs // nil unless request observability is configured

	shards []*shard
	split  strategy.ShardSplit

	mu          sync.Mutex
	byKey       map[string]*placement
	pendingKeys map[string]struct{}
	nextVMID    int   // next uid to assign (uids are 1-based)
	lastSeq     int   // last journal seq applied to state
	jSize       int64 // restore: end of the journal's last valid record

	// snap and snapBuf are the last snapshot's payload and encoding,
	// reused by the next; writeSnapshot holds every shard's smu.
	snap    snapPayload
	snapBuf []byte

	draining atomic.Bool
	stop     chan struct{}
	bg       sync.WaitGroup

	mRequests  *obs.Counter
	mPlaced    *obs.Counter
	mReplayed  *obs.Counter
	mReleased  *obs.Counter
	mShed      *obs.Counter
	mRejected  *obs.Counter
	mRequeued  *obs.Counter
	mSnapshots *obs.Counter
	mCrashes   *obs.Counter
	mRecovers  *obs.Counter
	qWait      *obs.Quantile
}

// NewService builds the service, optionally restoring from a snapshot +
// journal, verifies every watchdog invariant on restored state, and
// starts the shard workers and background tickers.
func NewService(cfg Config) (*Service, error) {
	s, err := newService(cfg)
	if err != nil {
		return nil, err
	}
	s.startWorkers()
	return s, nil
}

// newService is NewService without starting goroutines — the test seam.
func newService(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:         cfg,
		clock:       cfg.Clock,
		start:       cfg.Clock(),
		reg:         cfg.Obs,
		rec:         cfg.Recorder,
		wd:          obs.NewWatchdog(1),
		byKey:       map[string]*placement{},
		pendingKeys: map[string]struct{}{},
		nextVMID:    1,
		stop:        make(chan struct{}),
	}
	s.lad = newLadder(&cfg, s.clock, s.reg, s.rec)
	s.lim = newLimiter(cfg.RatePerSec, cfg.RateBurst, s.clock)
	if cfg.obsEnabled() {
		if s.ro, err = newServeObs(cfg, s.reg, s.clock); err != nil {
			return nil, err
		}
	}
	s.mRequests = s.reg.Counter("serve_requests_total")
	s.mPlaced = s.reg.Counter("serve_placements_total")
	s.mReplayed = s.reg.Counter("serve_replays_total")
	s.mReleased = s.reg.Counter("serve_releases_total")
	s.mShed = s.reg.Counter("serve_shed_total")
	s.mRejected = s.reg.Counter("serve_rejects_total")
	s.mRequeued = s.reg.Counter("serve_requeues_total")
	s.mSnapshots = s.reg.Counter("serve_snapshots_total")
	s.mCrashes = s.reg.Counter("serve_crashes_total")
	s.mRecovers = s.reg.Counter("serve_recovers_total")
	s.qWait = s.reg.Quantile("serve_queue_wait_seconds")

	ff, err := strategy.NewFirstFit(cfg.MaxVMsPerServer / strategy.CPUSlotsPerServer)
	if err != nil {
		return nil, err
	}
	s.split = strategy.SplitFleet(cfg.Servers, cfg.Shards)
	for k := 0; k < cfg.Shards; k++ {
		n := s.split[k+1] - s.split[k]
		sh := &shard{
			svc:     s,
			id:      k,
			base:    s.split[k],
			n:       n,
			idx:     strategy.NewFleetIndex(n, cfg.MaxVMsPerServer),
			scratch: make([]int, trace.MaxVMs),
			ff:      ff,
		}
		sh.qcond = sync.NewCond(&sh.qmu)
		coreCfg := core.Config{DB: cfg.DB, MaxVMsPerServer: cfg.MaxVMsPerServer, Obs: s.reg, Cancel: sh.searchCanceled}
		if sh.pa, err = strategy.NewProactiveConfig(coreCfg, cfg.Goal); err != nil {
			return nil, err
		}
		sh.syncStats()
		s.shards = append(s.shards, sh)
	}

	if cfg.Restore {
		if err = s.restore(); err != nil {
			return nil, err
		}
	} else if cfg.SnapshotPath != "" {
		// Fresh start with durability: clear any stale state files so
		// the journal's sequence space starts clean.
		for _, p := range []string{cfg.SnapshotPath, cfg.JournalPath} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	if cfg.SnapshotPath != "" {
		if s.j, err = openJournal(cfg.JournalPath, cfg.Fsync, s.lastSeq, s.jSize); err != nil {
			return nil, err
		}
	}

	s.registerChecks()
	s.wd.Bind(s.reg)
	if cfg.Restore {
		s.wd.RunChecks(s.wallT())
		if v := s.wd.Violations(); len(v) > 0 {
			_ = s.j.close()
			return nil, fmt.Errorf("serve: restored state failed %d invariant check(s); first: %s: %s", len(v), v[0].Check, v[0].Detail)
		}
	}
	return s, nil
}

// startWorkers launches the per-shard workers and the ticker goroutine.
func (s *Service) startWorkers() {
	for _, sh := range s.shards {
		s.bg.Add(1)
		go sh.run()
	}
	s.bg.Add(1)
	go s.runTickers()
}

// wallT is the decision-log timestamp: wall seconds since service start.
func (s *Service) wallT() float64 { return s.clock().Sub(s.start).Seconds() }

// searchCanceled is the PA search's Cancel hook: true once the armed
// request deadline passes.
func (sh *shard) searchCanceled() bool {
	d := sh.deadlineNs.Load()
	return d != 0 && sh.svc.clock().UnixNano() > d
}

// shardOf maps a global server id in [0, Servers) to its owning shard.
func (s *Service) shardOf(g int) *shard { return s.shards[s.split.Shard(g)] }

// syncStats refreshes the lock-free free-slot estimate; callers hold
// sh.smu (or run pre-start). The apply functions keep liveVMs.
func (sh *shard) syncStats() {
	sh.freeSlots.Store(int64(sh.idx.FreeSlotsBelow(sh.ff.Cap())))
}

// route picks the shard for a request: among shards whose free-slot
// estimate (minus already-queued VMs) fits it, the one with the most
// headroom, ties to the lowest id — the sharded coordinator's
// capacity-aware routing adapted to live estimates. With no fitting
// shard, the least-loaded shard by (live+queued VMs)/servers takes it
// and decides for itself.
func (s *Service) route(vms int) *shard {
	var best *shard
	bestFree := int64(-1)
	for _, sh := range s.shards {
		free := sh.freeSlots.Load() - sh.queuedVMs.Load()
		if free >= int64(vms) && free > bestFree {
			best, bestFree = sh, free
		}
	}
	if best != nil {
		return best
	}
	var minLoad float64
	for _, sh := range s.shards {
		load := float64(sh.liveVMs.Load()+sh.queuedVMs.Load()) / float64(sh.n)
		if best == nil || load < minLoad {
			best, minLoad = sh, load
		}
	}
	return best
}

// ---- admission (HTTP-goroutine side) ----

// Place admits, routes and waits out one placement request. client
// identifies the caller for rate limiting. Direct API callers get the
// full observability treatment too; the HTTP layer uses placeTraced so
// its trace also covers JSON decode and the response write.
func (s *Service) Place(client string, req PlaceRequest) Outcome {
	rt := s.traceStart("")
	out := s.placeTraced(client, req, rt)
	s.observeRequest(rt, client, "/v1/place", out)
	return out
}

// placeTraced is Place's body, with the request's stage spans recorded
// on rt (nil when tracing is off — every span call is then a no-op).
func (s *Service) placeTraced(client string, req PlaceRequest, rt *obs.ReqTrace) Outcome {
	s.mRequests.Inc()
	if s.draining.Load() {
		return s.shed(req.Job, req.VMs, 503, cloudsim.RejectDraining, time.Second)
	}
	rt.StageStart(stageDecode) // validation rides the decode span
	if req.Key == "" {
		rt.StageEnd(stageDecode)
		return Outcome{Status: 400, Reason: "missing key"}
	}
	if req.VMs < 1 || req.VMs > trace.MaxVMs {
		rt.StageEnd(stageDecode)
		return Outcome{Status: 400, Reason: fmt.Sprintf("vms %d out of [1,%d]", req.VMs, trace.MaxVMs)}
	}
	class, err := parseClass(req.Class)
	rt.StageEnd(stageDecode)
	if err != nil {
		return Outcome{Status: 400, Reason: err.Error()}
	}
	rt.Annotate("key", req.Key)
	rt.StageStart(stageIdempotency)
	s.mu.Lock()
	if pl := s.byKey[req.Key]; pl != nil {
		resp := pl.response(true)
		s.mu.Unlock()
		rt.StageEnd(stageIdempotency)
		s.mReplayed.Inc()
		return Outcome{Status: 200, Resp: resp}
	}
	if _, inFlight := s.pendingKeys[req.Key]; inFlight {
		s.mu.Unlock()
		rt.StageEnd(stageIdempotency)
		return Outcome{Status: 429, Reason: "pending", RetryAfter: s.cfg.RequestTimeout}
	}
	s.pendingKeys[req.Key] = struct{}{}
	s.mu.Unlock()
	rt.StageEnd(stageIdempotency)

	// Rate-limit only fresh work: a replay above is answered from
	// memory and consumes no placement capacity, so a throttled client
	// retrying an acknowledged key still gets its result.
	rt.StageStart(stageRateLimit)
	ok, wait := s.lim.allow(client)
	rt.StageEnd(stageRateLimit)
	if !ok {
		s.unpend(req.Key)
		return s.shed(req.Job, req.VMs, 429, cloudsim.RejectRateLimit, wait)
	}

	if s.lad.current() >= LevelShed {
		s.unpend(req.Key)
		s.mShed.Inc()
		return s.shed(req.Job, req.VMs, 429, cloudsim.RejectShedding, s.cfg.Watermarks[len(s.cfg.Watermarks)-1])
	}

	nominalS := req.NominalS
	if nominalS <= 0 {
		nominalS = 600
	}
	sh := s.route(req.VMs)
	if rt != nil {
		rt.Annotate("shard", strconv.Itoa(sh.id))
	}
	now := s.clock()
	p := &pending{
		queued: queued{
			Key: req.Key, Job: req.Job, Class: class, VMs: req.VMs,
			NominalS: nominalS, MaxS: req.MaxResponseS, Shard: sh.id,
		},
		enqueued: now, deadline: now.Add(s.cfg.RequestTimeout),
		done: make(chan Outcome, 1),
		rt:   rt,
	}
	if !sh.enqueue(p) {
		s.unpend(req.Key)
		s.mShed.Inc()
		return s.shed(req.Job, req.VMs, 429, cloudsim.RejectQueueFull, s.cfg.RequestTimeout)
	}
	s.record(cloudsim.Decision{
		Kind: cloudsim.DecisionAdmit, Shard: sh.id,
		Job: req.Job, VMs: req.VMs, Queue: int(sh.queuedVMs.Load()), From: -1, To: sh.id,
	}, nil)
	return <-p.done
}

// unpend drops the in-flight marker for a key that never reached a
// queue.
func (s *Service) unpend(key string) {
	s.mu.Lock()
	delete(s.pendingKeys, key)
	s.mu.Unlock()
}

// shed logs one admission-control drop and shapes the client response.
func (s *Service) shed(job, vms, status int, reason string, retry time.Duration) Outcome {
	s.record(cloudsim.Decision{
		Kind: cloudsim.DecisionShed, Shard: -1,
		Job: job, VMs: vms, Reason: reason, From: -1, To: -1,
	}, nil)
	return Outcome{Status: status, Reason: reason, RetryAfter: retry}
}

// record logs one decision unless no recorder is attached, in which case
// it returns before building anything. It stamps the service clock and
// Req -1 (the service has no simulator request index), copies Servers
// and VMIDs so callers may pass live slices, and attaches search when
// non-nil.
func (s *Service) record(d cloudsim.Decision, search *core.SearchStats) {
	if s.rec == nil {
		return
	}
	d.T, d.Req = s.wallT(), -1
	d.Servers = append([]int(nil), d.Servers...)
	d.VMIDs = append([]int(nil), d.VMIDs...)
	if search != nil {
		d.Search = cloudsim.NewDecisionSearch(*search)
	}
	s.rec.Record(d)
}

// Release frees a placement's VMs. Idempotent: releasing a released key
// replays success.
func (s *Service) Release(key string) Outcome {
	s.mu.Lock()
	pl := s.byKey[key]
	released := pl != nil && pl.Released // a released placement never changes again
	s.mu.Unlock()
	if pl == nil {
		return Outcome{Status: 404, Reason: "unknown key"}
	}
	if released {
		s.mReplayed.Inc()
		return Outcome{Status: 200, Resp: pl.response(true)}
	}
	sh, done := s.shards[pl.Shard], make(chan Outcome, 1)
	if !sh.pushCtrl(func() { done <- sh.handleRelease(key) }) {
		return Outcome{Status: 503, Reason: cloudsim.RejectDraining, RetryAfter: time.Second}
	}
	return <-done
}

// CrashServer marks a server down, evicting and re-queueing its VMs —
// the service-side fault hook (chaos testing, or an external health
// prober).
func (s *Service) CrashServer(g int) error { return s.pushServerOp(g, (*shard).handleCrash) }

// RecoverServer brings a crashed server back into placement rotation.
func (s *Service) RecoverServer(g int) error { return s.pushServerOp(g, (*shard).handleRecover) }

// pushServerOp queues op for global server g on its shard's worker,
// which calls it with the shard-local id.
func (s *Service) pushServerOp(g int, op func(*shard, int)) error {
	if g < 0 || g >= s.cfg.Servers {
		return fmt.Errorf("serve: server %d out of [0,%d)", g, s.cfg.Servers)
	}
	sh := s.shardOf(g)
	if !sh.pushCtrl(func() { op(sh, g-sh.base) }) {
		return errors.New("serve: draining")
	}
	return nil
}

// ---- shard queues ----

func (sh *shard) enqueue(p *pending) bool {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	if sh.stopped || len(sh.pend) >= sh.svc.cfg.QueueCap {
		return false
	}
	sh.pend = append(sh.pend, p)
	sh.queuedVMs.Add(int64(p.VMs))
	sh.qcond.Signal()
	return true
}

func (sh *shard) pushCtrl(op func()) bool {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	if sh.stopped {
		return false
	}
	sh.ctrl = append(sh.ctrl, op)
	sh.qcond.Signal()
	return true
}

func (sh *shard) park(p *pending) {
	sh.qmu.Lock()
	sh.parked = append(sh.parked, p)
	sh.qmu.Unlock()
}

// next blocks for the worker's next unit: control ops first, then one
// parked requeue per retry window, then the admission queue.
func (sh *shard) next() (func(), *pending, bool) {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	for {
		if len(sh.ctrl) > 0 {
			op := sh.ctrl[0]
			sh.ctrl = sh.ctrl[1:]
			return op, nil, true
		}
		if len(sh.parked) > 0 {
			if now := sh.svc.clock(); !now.Before(sh.nextRetry) {
				sh.nextRetry = now.Add(parkRetryEvery)
				p := sh.parked[0]
				sh.parked = sh.parked[1:]
				return nil, p, true
			}
		}
		if len(sh.pend) > 0 {
			p := sh.pend[0]
			sh.pend = sh.pend[1:]
			sh.queuedVMs.Add(-int64(p.VMs))
			return nil, p, true
		}
		if sh.stopped {
			return nil, nil, false
		}
		sh.qcond.Wait()
	}
}

// run is the shard worker: the single goroutine that mutates this
// shard's placement state.
func (sh *shard) run() {
	defer sh.svc.bg.Done()
	for {
		op, p, ok := sh.next()
		if !ok {
			return
		}
		switch {
		case op != nil:
			op()
		case p.Requeue:
			sh.handleRequeue(p)
		default:
			sh.handlePlace(p)
		}
	}
}

// ---- worker: placement ----

func (sh *shard) handlePlace(p *pending) {
	s := sh.svc
	now := s.clock()
	wait := now.Sub(p.enqueued)
	s.qWait.Observe(wait.Seconds())
	p.rt.StageDur(stageQueue, wait)
	level := s.lad.observe(wait)
	p.rt.Annotate("level", levelName(level))

	if now.After(p.deadline) {
		s.finish(p, s.shed(p.Job, p.VMs, 503, cloudsim.RejectDeadline, 0))
		return
	}
	if level >= LevelShed {
		s.mShed.Inc()
		s.finish(p, s.shed(p.Job, p.VMs, 429, cloudsim.RejectShedding, s.cfg.Watermarks[len(s.cfg.Watermarks)-1]))
		return
	}

	vms := sh.vmbuf[:p.VMs]
	for i := range vms {
		vms[i] = p.vm()
	}

	p.rt.StageStart(stageSearch)
	sh.smu.Lock()
	assign, info, searched, ok := sh.placeLocked(level, vms, p.deadline)
	p.rt.StageEnd(stageSearch)
	if !ok {
		sh.smu.Unlock()
		s.mRejected.Inc()
		s.record(cloudsim.Decision{
			Kind: cloudsim.DecisionReject, Shard: sh.id,
			Job: p.Job, VMs: p.VMs, Reason: cloudsim.RejectCapacity,
			Candidates: sh.n, From: -1, To: -1,
		}, nil)
		s.finish(p, Outcome{Status: 503, Reason: cloudsim.RejectCapacity, RetryAfter: time.Second})
		return
	}

	s.mu.Lock()
	ids := make([]int, p.VMs)
	for i := range ids {
		ids[i] = s.nextVMID
		s.nextVMID++
	}
	s.mu.Unlock()
	globals := make([]int, len(assign))
	for i, a := range assign {
		globals[i] = sh.base + a
	}
	pl := &placement{
		Key: p.Key, Job: p.Job, Class: p.Class,
		NominalS: p.NominalS, MaxS: p.MaxS,
		Shard: sh.id, Servers: globals, VMIDs: ids,
		Level: level, WaitMS: wait.Seconds() * 1000,
		Degraded: info.Stats.Degraded, Relaxed: info.Relaxed,
	}
	p.rt.StageStart(stageJournal)
	seq, err := s.j.append(&jrec{Kind: jPlace, Key: pl.Key, placement: pl})
	p.rt.StageEnd(stageJournal)
	if err != nil {
		sh.smu.Unlock()
		s.finish(p, Outcome{Status: 500, Reason: "journal: " + err.Error()})
		return
	}
	s.applyPlace(pl, seq)
	sh.smu.Unlock()

	s.mPlaced.Inc()
	var search *core.SearchStats
	if searched {
		search = &info.Stats
	}
	s.record(cloudsim.Decision{
		Kind: cloudsim.DecisionPlace, Shard: sh.id,
		Job: p.Job, VMs: p.VMs, Wait: wait.Seconds(), Candidates: sh.n,
		Servers: globals, VMIDs: ids,
		From: -1, To: -1, Relaxed: pl.Relaxed, Degraded: pl.Degraded,
	}, search)
	s.finish(p, Outcome{Status: 200, Resp: pl.response(false)})
}

// placeLocked runs the ladder-selected strategy through the shard's
// fleet index; callers hold sh.smu. Assignments are local server ids in
// sh.scratch, valid until the next placement. searched reports that a
// PA search ran, whose attribution info carries.
func (sh *shard) placeLocked(level int, vms []core.VMRequest, deadline time.Time) (assign []int, info strategy.PlaceInfo, searched, ok bool) {
	switch level {
	case LevelFull:
		if !deadline.IsZero() {
			sh.deadlineNs.Store(deadline.UnixNano())
			defer sh.deadlineNs.Store(0)
		}
		assign, ok, info = sh.pa.PlaceIndexedExplained(sh.idx, vms, sh.scratch)
		return assign, info, true, ok
	default:
		assign, ok = sh.ff.PlaceIndexed(sh.idx, vms, sh.scratch)
		return assign, info, false, ok
	}
}

// handleRequeue re-places one crash-evicted VM with first-fit —
// cheap, deterministic, and exempt from shedding and deadlines (the
// service owes the placement). No in-shard capacity parks it for the
// next retry window.
func (sh *shard) handleRequeue(p *pending) {
	s := sh.svc
	s.mu.Lock()
	pl := s.byKey[p.Key]
	dead := pl == nil || pl.Released
	s.mu.Unlock()
	if dead {
		return // released while evicted: nothing owed
	}
	vms := sh.vmbuf[:1]
	vms[0] = p.vm()
	sh.smu.Lock()
	assign, ok := sh.ff.PlaceIndexed(sh.idx, vms, sh.scratch)
	if !ok {
		sh.smu.Unlock()
		sh.park(p)
		return
	}
	g := sh.base + assign[0]
	seq, err := s.j.append(&jrec{Kind: jRequeue, Key: p.Key, Slot: p.Slot, VMID: p.VMID, Server: g})
	if err != nil {
		sh.smu.Unlock()
		sh.park(p)
		return
	}
	s.applyRequeue(p.Key, p.Slot, g, seq)
	sh.smu.Unlock()
	s.mRequeued.Inc()
	// This worker is the placement's only mutator, so its slot is stable.
	s.record(cloudsim.Decision{
		Kind: cloudsim.DecisionPlace, Shard: sh.id,
		Job: p.Job, VMs: 1, VMID: p.VMID,
		Servers: pl.Servers[p.Slot : p.Slot+1], VMIDs: pl.VMIDs[p.Slot : p.Slot+1],
		From: -1, To: -1,
	}, nil)
}

// ---- worker: control plane ----

func (sh *shard) handleRelease(key string) Outcome {
	s := sh.svc
	sh.smu.Lock()
	s.mu.Lock()
	pl := s.byKey[key]
	released := pl == nil || pl.Released
	s.mu.Unlock()
	if released {
		sh.smu.Unlock()
		if pl == nil {
			return Outcome{Status: 404, Reason: "unknown key"}
		}
		s.mReplayed.Inc()
		return Outcome{Status: 200, Resp: pl.response(true)}
	}
	seq, err := s.j.append(&jrec{Kind: jRelease, Key: key})
	if err != nil {
		sh.smu.Unlock()
		return Outcome{Status: 500, Reason: "journal: " + err.Error()}
	}
	s.applyRelease(key, seq)
	sh.smu.Unlock()
	s.mReleased.Inc()
	s.record(cloudsim.Decision{
		Kind: cloudsim.DecisionRelease, Shard: sh.id,
		Job: pl.Job, VMs: len(pl.VMIDs), From: -1, To: -1,
	}, nil)
	return Outcome{Status: 200, Resp: pl.response(false)}
}

// handleCrash takes a server down and parks a requeue for every VM its
// shard's live placements held there, in VM-id order.
func (sh *shard) handleCrash(local int) {
	s := sh.svc
	sh.smu.Lock()
	if sh.idx.Down(local) {
		sh.smu.Unlock()
		return
	}
	g := sh.base + local
	var requeues []*pending
	s.mu.Lock()
	for _, pl := range s.byKey {
		if pl.Shard != sh.id || pl.Released {
			continue
		}
		for slot, srv := range pl.Servers {
			if srv == g {
				requeues = append(requeues, &pending{queued: pl.requeue(slot), enqueued: s.clock()})
			}
		}
	}
	s.mu.Unlock()
	sort.Slice(requeues, func(i, j int) bool { return requeues[i].VMID < requeues[j].VMID })
	evicts := make([]evictRec, len(requeues))
	for i, p := range requeues {
		evicts[i] = evictRec{Key: p.Key, Slot: p.Slot, VMID: p.VMID}
	}
	seq, err := s.j.append(&jrec{Kind: jCrash, Server: g, Evict: evicts})
	if err != nil {
		sh.smu.Unlock()
		return
	}
	s.applyCrash(g, evicts, seq)
	sh.smu.Unlock()
	for _, p := range requeues {
		sh.park(p)
	}
	s.mCrashes.Inc()
	for _, e := range evicts {
		s.record(cloudsim.Decision{
			Kind: cloudsim.DecisionRequeue, Shard: sh.id, VMID: e.VMID, From: g, To: -1,
		}, nil)
	}
}

func (sh *shard) handleRecover(local int) {
	s := sh.svc
	sh.smu.Lock()
	if !sh.idx.Down(local) {
		sh.smu.Unlock()
		return
	}
	g := sh.base + local
	seq, err := s.j.append(&jrec{Kind: jRecover, Server: g})
	if err != nil {
		sh.smu.Unlock()
		return
	}
	s.applyRecover(g, seq)
	sh.smu.Unlock()
	s.mRecovers.Inc()
	// Wake the worker loop: parked requeues may fit now.
	sh.qmu.Lock()
	sh.nextRetry = time.Time{}
	sh.qcond.Broadcast()
	sh.qmu.Unlock()
}

// ---- state application (shared by live path, journal replay, restore) ----
//
// Apply functions mutate the placement table and what is derived from
// it — the owning shard's fleet index and routing estimates — and
// advance lastSeq. Callers hold the owning shard's smu (live path) or
// run single-threaded before the workers start (restore), and pass
// records checkRecord accepts.

func (s *Service) applyPlace(pl *placement, seq int) {
	sh := s.shards[pl.Shard]
	for _, g := range pl.Servers {
		if g >= 0 && !pl.Released { // restored: evicted slot, or released placement
			sh.idx.Add(g-sh.base, workload.Class(pl.Class), 1)
			sh.liveVMs.Add(1)
		}
	}
	sh.syncStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byKey[pl.Key] = pl
	delete(s.pendingKeys, pl.Key)
	for _, id := range pl.VMIDs {
		s.nextVMID = max(s.nextVMID, id+1)
	}
	s.lastSeq = max(s.lastSeq, seq)
}

func (s *Service) applyRelease(key string, seq int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl := s.byKey[key]
	sh := s.shards[pl.Shard]
	for _, g := range pl.Servers {
		if g >= 0 { // -1: evicted slot, whose requeue dies on pickup
			sh.idx.Add(g-sh.base, workload.Class(pl.Class), -1)
			sh.liveVMs.Add(-1)
		}
	}
	sh.syncStats()
	pl.Released = true
	s.lastSeq = max(s.lastSeq, seq)
}

func (s *Service) applyCrash(g int, evicts []evictRec, seq int) {
	sh := s.shardOf(g)
	local := g - sh.base
	sh.idx.SetDown(local)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range evicts {
		pl := s.byKey[e.Key]
		if pl.Released || pl.Servers[e.Slot] != g {
			continue
		}
		sh.idx.Add(local, workload.Class(pl.Class), -1)
		sh.liveVMs.Add(-1)
		pl.Servers[e.Slot] = -1
	}
	sh.syncStats()
	s.lastSeq = max(s.lastSeq, seq)
}

func (s *Service) applyRequeue(key string, slot, g, seq int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl := s.byKey[key]
	sh := s.shards[pl.Shard]
	sh.idx.Add(g-sh.base, workload.Class(pl.Class), 1)
	sh.liveVMs.Add(1)
	sh.syncStats()
	pl.Servers[slot] = g
	s.lastSeq = max(s.lastSeq, seq)
}

func (s *Service) applyRecover(g, seq int) {
	sh := s.shardOf(g)
	sh.idx.SetUp(g - sh.base)
	sh.syncStats()
	s.mu.Lock()
	s.lastSeq = max(s.lastSeq, seq)
	s.mu.Unlock()
}

// ---- response plumbing ----

// finish answers a queued request and clears its in-flight marker. The
// ack span opens here and closes in observeRequest after the response
// is written, so it covers the reply-channel handoff plus the write.
func (s *Service) finish(p *pending, out Outcome) {
	s.mu.Lock()
	delete(s.pendingKeys, p.Key)
	s.mu.Unlock()
	if p.done != nil {
		p.rt.StageStart(stageAck)
		p.done <- out
	}
}

// ---- background tickers ----

func (s *Service) runTickers() {
	defer s.bg.Done()
	ladderT := time.NewTicker(s.cfg.LadderDwell)
	defer ladderT.Stop()
	var wdC, snapC <-chan time.Time
	if s.cfg.WatchdogEvery > 0 {
		t := time.NewTicker(s.cfg.WatchdogEvery)
		defer t.Stop()
		wdC = t.C
	}
	if s.cfg.SnapshotPath != "" {
		t := time.NewTicker(s.cfg.SnapshotEvery)
		defer t.Stop()
		snapC = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-ladderT.C:
			s.ladderTick()
		case <-wdC:
			s.wd.RunChecks(s.wallT())
		case <-snapC:
			_ = s.writeSnapshot()
		}
	}
}

// ladderTick feeds the ladder even when no request completes — the
// oldest queued wait, or zero on idle — so a stalled queue still steps
// the ladder down and an idle service recovers. It also wakes workers
// whose only work is parked requeues.
func (s *Service) ladderTick() {
	now := s.clock()
	var oldest time.Duration
	for _, sh := range s.shards {
		sh.qmu.Lock()
		if len(sh.pend) > 0 {
			if age := now.Sub(sh.pend[0].enqueued); age > oldest {
				oldest = age
			}
		}
		if len(sh.parked) > 0 {
			sh.qcond.Broadcast()
		}
		sh.qmu.Unlock()
	}
	s.lad.observe(oldest)
}

// ---- snapshotting ----

// lockAll takes one mutex of every shard (smuOf or qmuOf) in canon
// order and returns the function that releases them.
func (s *Service) lockAll(mu func(*shard) *sync.Mutex) (unlock func()) {
	for _, sh := range s.shards {
		mu(sh).Lock()
	}
	return func() {
		for i := len(s.shards) - 1; i >= 0; i-- {
			mu(s.shards[i]).Unlock()
		}
	}
}

func smuOf(sh *shard) *sync.Mutex { return &sh.smu }
func qmuOf(sh *shard) *sync.Mutex { return &sh.qmu }

// keysLocked returns the placement keys in order; callers hold s.mu (or
// run pre-start).
func (s *Service) keysLocked() []string {
	keys := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// captureLocked assembles a consistent snapshot payload in s.snap,
// reusing the previous one's slices. Callers hold every shard's smu;
// with those held there is no appended-but-unapplied journal record, so
// lastSeq names the state exactly — and no placement can change, so the
// payload shares the live ones until the caller releases the smus.
func (s *Service) captureLocked() *snapPayload {
	defer s.lockAll(qmuOf)()
	s.mu.Lock()
	defer s.mu.Unlock()

	p := &s.snap
	*p = snapPayload{
		Seq: s.lastSeq, NextVMID: s.nextVMID,
		Servers: s.cfg.Servers, Shards: s.cfg.Shards, MaxVMs: s.cfg.MaxVMsPerServer,
		Down: p.Down[:0], Placements: p.Placements[:0], Queue: p.Queue[:0],
	}
	for _, sh := range s.shards {
		for i := 0; i < sh.n; i++ {
			if sh.idx.Down(i) {
				p.Down = append(p.Down, sh.base+i)
			}
		}
	}
	// In key order; byKey maps each placement's own key to it.
	for _, pl := range s.byKey {
		p.Placements = append(p.Placements, pl)
	}
	slices.SortFunc(p.Placements, func(a, b *placement) int { return strings.Compare(a.Key, b.Key) })
	if len(p.Placements) == 0 {
		p.Placements = nil // encoded as null, as before any placement
	}
	for _, sh := range s.shards {
		for _, q := range sh.pend {
			p.Queue = append(p.Queue, q.queued)
		}
		for _, q := range sh.parked {
			p.Queue = append(p.Queue, q.queued)
		}
	}
	return p
}

// writeSnapshot persists a snapshot and truncates the journal it
// subsumes. Every shard's smu is held from capture through truncation:
// all journal appends happen under some smu, so none can land between
// the captured sequence number and the truncate — workers simply wait
// out the write (bounded by one snapshot-file fsync).
func (s *Service) writeSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	defer s.lockAll(smuOf)()
	p := s.captureLocked()
	if err := writeSnapshotFile(s.cfg.SnapshotPath, p, &s.snapBuf); err != nil {
		return err
	}
	if s.j != nil {
		s.j.mu.Lock()
		err := s.j.f.Truncate(0)
		s.j.mu.Unlock()
		if err != nil {
			return err
		}
	}
	s.mSnapshots.Inc()
	return nil
}

// ---- restore ----

// restore rebuilds state from the snapshot plus the journal suffix and
// re-admits the work the snapshot's queue still owes. Every record read
// from disk passes checkRecord before it is applied.
func (s *Service) restore() error {
	snap, err := readSnapshotFile(s.cfg.SnapshotPath)
	if err != nil {
		return err
	}
	var queue []queued
	if snap != nil {
		if snap.Servers != s.cfg.Servers || snap.Shards != s.cfg.Shards || snap.MaxVMs != s.cfg.MaxVMsPerServer {
			return fmt.Errorf("serve: snapshot shape (servers %d, shards %d, maxvms %d) does not match config (%d, %d, %d)",
				snap.Servers, snap.Shards, snap.MaxVMs, s.cfg.Servers, s.cfg.Shards, s.cfg.MaxVMsPerServer)
		}
		if snap.Seq < 0 || snap.NextVMID < 1 {
			return fmt.Errorf("serve: snapshot seq %d or next vm id %d out of range", snap.Seq, snap.NextVMID)
		}
		s.nextVMID, s.lastSeq = snap.NextVMID, snap.Seq
		// A down server restores as a crash that evicts nothing: the
		// placements below already hold its VMs as evicted.
		for _, g := range snap.Down {
			if err := s.checkRecord(&jrec{Kind: jCrash, Server: g}); err != nil {
				return err
			}
			s.applyCrash(g, nil, snap.Seq)
		}
		for _, pl := range snap.Placements {
			if err := s.checkRecord(pl); err != nil {
				return err
			}
			s.applyPlace(pl, snap.Seq)
		}
		queue = snap.Queue
	}
	recs, valid, err := readJournal(s.cfg.JournalPath)
	if err != nil {
		return err
	}
	s.jSize = valid
	for i := range recs {
		if recs[i].Seq <= s.lastSeq {
			continue
		}
		if err := s.replay(&recs[i]); err != nil {
			return err
		}
	}
	return s.requeueRestored(queue)
}

// checkRecord validates one record read from disk — a snapshot placement
// or queue entry, or a journal record — against the config and the
// state restored so far, so that applying it stays in bounds: servers
// in range, inside one shard and, for live VMs, up; -1 only in a
// snapshot placement's slots; slots in range; VM uids >= 1; keys placed
// and released once; crash only on an up server, recover on a down one.
func (s *Service) checkRecord(rec any) error {
	inShard := func(g int, sh *shard) bool { return g >= sh.base && g < sh.base+sh.n }
	up := func(g int, sh *shard) bool { return inShard(g, sh) && !sh.idx.Down(g-sh.base) }
	switch r := rec.(type) {
	case *placement:
		if r.Key == "" || r.Shard < 0 || r.Shard >= len(s.shards) || len(r.Servers) == 0 ||
			len(r.Servers) != len(r.VMIDs) || s.byKey[r.Key] != nil {
			return fmt.Errorf("serve: placement %q malformed or placed twice", r.Key)
		}
		sh := s.shards[r.Shard]
		for slot, g := range r.Servers {
			if r.VMIDs[slot] < 1 || g != -1 && !(r.Released && inShard(g, sh) || up(g, sh)) {
				return fmt.Errorf("serve: placement %q slot %d: vm %d on server %d, not an up server of shard %d",
					r.Key, slot, r.VMIDs[slot], g, r.Shard)
			}
		}
	case *queued:
		if pl := s.byKey[r.Key]; r.Requeue && pl != nil && (r.Slot < 0 || r.Slot >= len(pl.Servers)) ||
			!r.Requeue && (r.VMs < 1 || r.VMs > trace.MaxVMs || r.Shard < 0 || r.Shard >= len(s.shards)) {
			return fmt.Errorf("serve: snapshot queue entry %q malformed", r.Key)
		}
	case *jrec:
		pl := s.byKey[r.Key]
		live := pl != nil && !pl.Released
		ok := false
		switch r.Kind {
		case jPlace:
			if len(r.Servers) > 0 && !r.Released && slices.Min(r.Servers) >= 0 && r.Servers[0] < s.cfg.Servers {
				r.placement.Shard = s.shardOf(r.Servers[0]).id
				return s.checkRecord(r.placement)
			}
		case jRelease:
			ok = live
		case jCrash, jRecover:
			ok = r.Server >= 0 && r.Server < s.cfg.Servers && up(r.Server, s.shardOf(r.Server)) == (r.Kind == jCrash)
			for _, e := range r.Evict {
				ep := s.byKey[e.Key]
				ok = ok && ep != nil && e.Slot >= 0 && e.Slot < len(ep.Servers)
			}
		case jRequeue:
			ok = live && r.Slot >= 0 && r.Slot < len(pl.Servers) && pl.Servers[r.Slot] == -1 &&
				r.VMID == pl.VMIDs[r.Slot] && up(r.Server, s.shards[pl.Shard])
		}
		if !ok {
			b, _ := json.Marshal(r)
			return fmt.Errorf("serve: %s record does not fit the fleet or the state before it: %s", r.Kind, b)
		}
	}
	return nil
}

// replay applies one journal record to restored state.
func (s *Service) replay(r *jrec) error {
	if err := s.checkRecord(r); err != nil {
		return err
	}
	switch r.Kind {
	case jPlace:
		s.applyPlace(r.placement, r.Seq)
	case jRelease:
		s.applyRelease(r.Key, r.Seq)
	case jCrash:
		s.applyCrash(r.Server, r.Evict, r.Seq)
	case jRecover:
		s.applyRecover(r.Server, r.Seq)
	case jRequeue:
		s.applyRequeue(r.Key, r.Slot, r.Server, r.Seq)
	}
	return nil
}

// requeueRestored re-admits the snapshot's queue minus what the journal
// suffix settled (the worker kept going after the snapshot): a plain
// request whose key is now placed, a requeue whose slot is no longer
// evicted or whose placement is gone or released. Re-admitting those
// would double-place. Requeues are rebuilt from their placement and
// park on its shard, and every evicted slot the queue misses (a crash
// replayed from the journal) gets one too. Plain requests re-enter
// their shard's queue with a fresh deadline and no reply channel: the
// client's retry replays the result.
func (s *Service) requeueRestored(queue []queued) error {
	now := s.clock()
	type slotKey struct {
		key  string
		slot int
	}
	owed := map[slotKey]bool{}
	for i := range queue {
		q := &queue[i]
		if err := s.checkRecord(q); err != nil {
			return err
		}
		pl := s.byKey[q.Key]
		if q.Requeue {
			if pl == nil || pl.Released || pl.Servers[q.Slot] >= 0 || owed[slotKey{q.Key, q.Slot}] {
				continue
			}
			owed[slotKey{q.Key, q.Slot}] = true
			s.shards[pl.Shard].park(&pending{queued: pl.requeue(q.Slot), enqueued: now})
			continue
		}
		if _, dup := s.pendingKeys[q.Key]; pl != nil || dup {
			continue
		}
		s.pendingKeys[q.Key] = struct{}{}
		sh := s.shards[q.Shard]
		sh.pend = append(sh.pend, &pending{queued: *q, enqueued: now, deadline: now.Add(s.cfg.RequestTimeout)})
		sh.queuedVMs.Add(int64(q.VMs))
	}
	for _, k := range s.keysLocked() {
		pl := s.byKey[k]
		for slot, g := range pl.Servers {
			if g < 0 && !pl.Released && !owed[slotKey{k, slot}] {
				s.shards[pl.Shard].park(&pending{queued: pl.requeue(slot), enqueued: now})
			}
		}
	}
	return nil
}

// ---- watchdog ----

// auditShards runs check on every shard against what the placement
// table says the shard should hold — every server's allocation and the
// live VM count, rebuilt in one pass over byKey — with every smu and
// s.mu held.
func (s *Service) auditShards(check func(sh *shard, alloc []model.Key, live int64) error) error {
	defer s.lockAll(smuOf)()
	s.mu.Lock()
	defer s.mu.Unlock()
	alloc := make([][]model.Key, len(s.shards))
	live := make([]int64, len(s.shards))
	for _, sh := range s.shards {
		alloc[sh.id] = make([]model.Key, sh.n)
	}
	for _, pl := range s.byKey {
		if pl.Released {
			continue
		}
		for _, g := range pl.Servers {
			if g < 0 || g >= s.cfg.Servers {
				continue // evicted, or malformed: placement-conservation's finding
			}
			sh := s.shardOf(g)
			a := &alloc[sh.id][g-sh.base]
			*a = a.Add(model.KeyFor(workload.Class(pl.Class), 1))
			live[sh.id]++
		}
	}
	for _, sh := range s.shards {
		if err := check(sh, alloc[sh.id], live[sh.id]); err != nil {
			return err
		}
	}
	return nil
}

// registerChecks wires the five service invariants. Each check takes
// the locks it needs in canon order, so sweeps are safe while serving.
// The placement table is the record; the checks audit everything kept
// incrementally beside it.
func (s *Service) registerChecks() {
	// 1. The capacity index agrees with the allocations the placement
	// table implies, and with its own internal structure.
	s.wd.Register("capacity-index", func() error {
		return s.auditShards(func(sh *shard, alloc []model.Key, _ int64) error {
			if err := sh.idx.AuditInvariants(func(i int) model.Key { return alloc[i] }); err != nil {
				return err
			}
			for i := 0; i < sh.n; i++ {
				if t := sh.idx.Used(i); t > s.cfg.MaxVMsPerServer {
					return fmt.Errorf("shard %d server %d holds %d VMs, cap %d", sh.id, sh.base+i, t, s.cfg.MaxVMsPerServer)
				}
			}
			return nil
		})
	})
	// 2. The routing estimates match the placement table: the free slots
	// its allocations leave on up servers, and its live VM count.
	s.wd.Register("occupancy", func() error {
		return s.auditShards(func(sh *shard, alloc []model.Key, live int64) error {
			free := 0
			for i, a := range alloc {
				if !sh.idx.Down(i) {
					free += max(0, sh.ff.Cap()-a.Total())
				}
			}
			if got := sh.freeSlots.Load(); got != int64(free) {
				return fmt.Errorf("shard %d free-slot estimate %d, placements leave %d", sh.id, got, free)
			}
			if got := sh.liveVMs.Load(); got != live {
				return fmt.Errorf("shard %d live-VM estimate %d, placements hold %d", sh.id, got, live)
			}
			return nil
		})
	})
	// 3. Placements are well formed, each live VM sits on a server of its
	// placement's shard, and VM uids are unique and within the issued
	// range.
	s.wd.Register("placement-conservation", func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		seen := map[int]bool{}
		for key, pl := range s.byKey {
			if pl.Key != key || len(pl.Servers) != len(pl.VMIDs) || pl.Shard < 0 || pl.Shard >= len(s.shards) {
				return fmt.Errorf("placement %q malformed", key)
			}
			if pl.Released {
				continue
			}
			sh := s.shards[pl.Shard]
			for slot, g := range pl.Servers {
				id := pl.VMIDs[slot]
				if id < 1 || id >= s.nextVMID {
					return fmt.Errorf("placement %q vm uid %d outside issued range [1,%d)", key, id, s.nextVMID)
				}
				if seen[id] {
					return fmt.Errorf("vm uid %d appears in two live placements", id)
				}
				seen[id] = true
				if g != -1 && (g < sh.base || g >= sh.base+sh.n) {
					return fmt.Errorf("placement %q slot %d on server %d, outside its shard %d", key, slot, g, sh.id)
				}
			}
		}
		return nil
	})
	// 4. Queues respect their bounds and every queued request holds its
	// in-flight marker exactly once.
	s.wd.Register("queue-sanity", func() error {
		defer s.lockAll(qmuOf)()
		s.mu.Lock()
		defer s.mu.Unlock()
		seen := map[string]bool{}
		for _, sh := range s.shards {
			if len(sh.pend) > s.cfg.QueueCap {
				return fmt.Errorf("shard %d queue %d over cap %d", sh.id, len(sh.pend), s.cfg.QueueCap)
			}
			for _, p := range sh.pend {
				if p.Requeue {
					return fmt.Errorf("shard %d requeue %q in the admission queue", sh.id, p.Key)
				}
				if seen[p.Key] {
					return fmt.Errorf("key %q queued twice", p.Key)
				}
				seen[p.Key] = true
				if _, ok := s.pendingKeys[p.Key]; !ok {
					return fmt.Errorf("queued key %q missing its in-flight marker", p.Key)
				}
			}
			for _, p := range sh.parked {
				if !p.Requeue {
					return fmt.Errorf("shard %d non-requeue %q parked", sh.id, p.Key)
				}
			}
		}
		return nil
	})
	// 5. The journal's sequence counter matches the last applied record
	// (with every smu held there is no append in flight).
	s.wd.Register("journal-monotonic", func() error {
		if s.j == nil {
			return nil
		}
		unlock := s.lockAll(smuOf)
		s.mu.Lock()
		applied := s.lastSeq
		s.mu.Unlock()
		// Read the journal counter before releasing any smu: every
		// append happens under one, so only with all of them held is
		// "no append in flight" actually true — sampling after the
		// unlock would race a committing placement and record a
		// spurious, permanent violation.
		js := s.j.lastSeq()
		unlock()
		if js != applied {
			return fmt.Errorf("journal at seq %d, applied state at %d", js, applied)
		}
		return nil
	})
}

// ---- drain ----

// Drain stops the service: no new admissions, queues drained (bounded
// by timeout), workers stopped, stragglers answered 503, a final
// snapshot written, and one last invariant sweep run. It returns the
// sweep's cumulative violations.
func (s *Service) Drain(timeout time.Duration) []obs.Violation {
	s.draining.Store(true)
	deadline := s.clock().Add(timeout)
	for s.queuedWork() > 0 && s.clock().Before(deadline) {
		time.Sleep(drainPoll)
	}
	close(s.stop)
	for _, sh := range s.shards {
		sh.qmu.Lock()
		sh.stopped = true
		sh.qcond.Broadcast()
		sh.qmu.Unlock()
	}
	s.bg.Wait()
	// Anyone still queued gets a drain refusal — and is then absent
	// from the final snapshot, so a restore owes them nothing.
	for _, sh := range s.shards {
		sh.qmu.Lock()
		stranded := sh.pend
		sh.pend = nil
		sh.queuedVMs.Store(0)
		sh.qmu.Unlock()
		for _, p := range stranded {
			s.finish(p, Outcome{Status: 503, Reason: cloudsim.RejectDraining})
		}
	}
	_ = s.writeSnapshot()
	s.wd.RunChecks(s.wallT())
	_ = s.j.close()
	return s.wd.Violations()
}

// queuedWork counts undone queue and control items across shards.
func (s *Service) queuedWork() int {
	total := 0
	for _, sh := range s.shards {
		sh.qmu.Lock()
		total += len(sh.pend) + len(sh.ctrl)
		sh.qmu.Unlock()
	}
	return total
}

// ---- introspection ----

// ServiceStats is the /v1/stats payload.
type ServiceStats struct {
	Level         int              `json:"level"`
	LevelName     string           `json:"level_name"`
	WaitEWMAS     float64          `json:"wait_ewma_s"`
	Draining      bool             `json:"draining"`
	Placements    int              `json:"placements"`
	Queued        int              `json:"queued"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Build         obs.Provenance   `json:"build"`
	SLO           *obs.SLOSnapshot `json:"slo,omitempty"`
	Violations    []obs.Violation  `json:"violations,omitempty"`
}

// Stats reports the service's current posture.
func (s *Service) Stats() ServiceStats {
	s.mu.Lock()
	live := 0
	for _, pl := range s.byKey {
		if !pl.Released {
			live++
		}
	}
	s.mu.Unlock()
	st := ServiceStats{
		Level:         s.lad.current(),
		LevelName:     levelName(s.lad.current()),
		WaitEWMAS:     s.lad.waitEWMA(),
		Draining:      s.draining.Load(),
		Placements:    live,
		Queued:        s.queuedWork(),
		UptimeSeconds: s.clock().Sub(s.start).Seconds(),
		Build:         obs.CollectProvenance(),
		Violations:    s.wd.Violations(),
	}
	if slo := s.SLO(); slo != nil {
		snap := slo.Snapshot()
		st.SLO = &snap
	}
	return st
}
