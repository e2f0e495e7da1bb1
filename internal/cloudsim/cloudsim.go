// Package cloudsim is the datacenter-level discrete-event simulator of
// Sect. IV: it replays preprocessed workload traces against a cloud of
// identical servers, places job requests through a pluggable strategy
// (first-fit variants or the paper's PROACTIVE algorithm), and accounts
// execution time and energy with the model database exactly as the
// paper's Fig. 4 prescribes — whenever a server's resident set changes an
// interval closes, a VM's progress is the duration-weighted composition
// of the per-interval model rates, and a server's energy is the
// duration-weighted sum of per-interval model power, with the paper's
// fixed 125 W floor while a server is powered on and nothing while it is
// off.
//
// Metrics follow Sect. IV.C: makespan (difference between the earliest
// submission and the latest completion), energy consumption in Joules,
// and the percentage of SLA violations (missed maximum-response-time
// deadlines summed over all applications). Scheduling and provisioning
// overheads are not modelled, as in the paper.
//
// Run is the scale-tuned event loop: typed slab-backed events, pooled
// VM state, and placement through a capacity index (strategy.FleetIndex)
// that is the only record of each server's allocation and of the
// occupied and down server counts. RunReference
// (reference_test.go, test-only) retains the naive transcription, which
// hands strategies a fleet view through their linear Place, as the
// equivalence oracle; the golden tests prove both produce byte-identical
// Metrics and per-VM outcomes, reading Run's from the finished VMAudit
// spans that pacevm-sim -vm-audit exports.
package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"pacevm/internal/core"
	"pacevm/internal/eventq"
	"pacevm/internal/faults"
	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	// DB is the model database used to price allocations.
	DB *model.DB
	// Servers is the cloud size (the paper's SMALLER and LARGER clouds
	// differ only here, by ~15 %).
	Servers int
	// Strategy decides placements. Run and RunSharded require it to
	// implement strategy.IndexedPlacer: it places through a capacity
	// index the simulator maintains incrementally, never through a
	// fleet scan.
	Strategy strategy.Strategy
	// MaxVMsPerServer is the physical admission limit (defaults to
	// DefaultMaxVMsPerServer, the testbed's base-test ceiling).
	MaxVMsPerServer int
	// IdleServerPower is drawn by every provisioned server while it
	// hosts nothing — the paper "assume[s] a fixed power dissipation of
	// 125 W when a server" is on, and sizes its clouds so that "in the
	// SMALLER system there are fewer servers consuming energy". Defaults
	// to 125 W; set negative to model power-gated (0 W) idle servers
	// instead.
	IdleServerPower units.Watts
	// Consolidator, when non-nil, is invoked after completion events
	// with a snapshot of the live cloud and may return migration moves
	// (the dynamic-placement baseline of the paper's related work; see
	// internal/migrate). Each migrated VM pays the plan's MigrationCost
	// as additional nominal work — the live-migration downtime and
	// dirty-page slowdown.
	Consolidator Consolidator
	// BackfillDepth loosens the FCFS queue: when the head job cannot be
	// placed, up to this many jobs behind it are tried (aggressive
	// backfilling — small jobs may jump ahead and delay the head, the
	// classic fairness/utilization trade). Zero keeps the paper's strict
	// FCFS-without-backfilling behaviour.
	BackfillDepth int
	// Obs receives hot-path telemetry: events popped, placements
	// attempted/rejected, queue-depth high-water, backfill splices,
	// accounting intervals closed, pricing-cache hit rates, and the
	// event queue's slab/cancellation counters (names in DESIGN.md §4).
	// Nil — the default — disables it at zero cost: every handle is a
	// nil no-op and the run is allocation- and byte-identical to an
	// uninstrumented one. Observation never perturbs the simulation.
	Obs *obs.Registry
	// Tracer, when non-nil, records the run timeline over *simulated*
	// time in Chrome trace-event form (Perfetto-loadable): per-server
	// occupancy spans, per-VM execution slices with arrival→placement
	// flow arrows, and a queue-depth counter track. Like Obs it is
	// passive and free when nil. RunReference — the frozen pre-rewrite
	// oracle — ignores both fields.
	Tracer *obs.Tracer
	// Audit, when non-nil, collects one lifecycle span per VM attempt —
	// submit → queue → place(server) → run → {crash → requeue}* → finish
	// — with derived wait, service time, stretch, and deadline-miss
	// attribution (see audit.go). Passive and free when nil; ignored by
	// RunReference.
	Audit *VMAudit
	// Sampler, when non-nil, records the fleet's power/occupancy time
	// series at each closed accounting interval into a bounded,
	// deterministically-downsampled ring (see sampler.go) — the data
	// behind a Fig.-4-style power-over-time figure. Passive and free when
	// nil; ignored by RunReference.
	Sampler *FleetSampler
	// Faults is the deterministic crash/recovery schedule (see
	// internal/faults). Each event takes one server down at Down — its
	// resident VMs are killed per Checkpoint and re-queued through normal
	// admission, the server draws 0 W and is excluded from placement —
	// and brings it back at Up. Empty (the default) disables the fault
	// layer entirely: the run is byte-identical to a pre-fault build, and
	// that equivalence is what the golden tests pin. RunReference rejects
	// non-empty schedules — the oracle predates the fault model.
	Faults faults.Schedule
	// Checkpoint decides how much of a killed VM's progress survives a
	// crash (the remainder is re-done by the re-queued VM). Nil defaults
	// to faults.Restart — all progress lost. Ignored without Faults.
	Checkpoint faults.CheckpointPolicy
	// Recorder, when non-nil, captures the placement decision flight
	// log: every admit/route/place/reject/steal/requeue/migrate decision
	// with its candidate set, rejection reason and search statistics
	// (see decision.go; cmd/pacevm-explain reconstructs per-VM chains
	// from it). Passive and free when nil; ignored by RunReference.
	Recorder *DecisionRecorder
	// Watchdog, when non-nil, periodically re-derives the simulator's
	// core invariants — work conservation, queue sanity, capacity-index
	// sums, occupancy, energy integrals — during the run (see
	// watchdog.go). Checks are read-only: the run stays byte-identical
	// with or without it. Passive and free when nil; ignored by
	// RunReference.
	Watchdog *obs.Watchdog
}

// DefaultMaxVMsPerServer is the admission limit a zero
// Config.MaxVMsPerServer selects.
const DefaultMaxVMsPerServer = 16

// Consolidator proposes VM migrations for a live cloud snapshot.
type Consolidator interface {
	Propose(allocs []model.Key, vms []migrate.VM) (migrate.Plan, error)
}

// Metrics are the evaluation's aggregate outcomes.
type Metrics struct {
	// Makespan is the workload execution time: latest completion minus
	// earliest submission.
	Makespan units.Seconds
	// Energy is the total energy consumed by all servers.
	Energy units.Joules
	// Violations counts VMs that missed their response-time deadline;
	// TotalVMs and TotalJobs size the workload.
	Violations int
	TotalVMs   int
	TotalJobs  int
	// AvgResponse and AvgWait are per-VM means.
	AvgResponse units.Seconds
	AvgWait     units.Seconds
	// PeakActiveServers is the high-water mark of simultaneously
	// powered-on servers; ActiveServerSeconds integrates powered-on time.
	PeakActiveServers   int
	ActiveServerSeconds float64
	// Migrations counts VM moves made by the Consolidator;
	// ServersDrained counts servers its plans emptied.
	Migrations     int
	ServersDrained int
	// Fault-injection outcomes; all zero in a fault-free run.
	// FaultsInjected counts crash events fired, VMsKilled the VMs those
	// crashes evicted, Requeues the synthetic single-VM requests that
	// re-entered admission, and WorkLost the nominal-seconds of progress
	// the checkpoint policy could not save. DownServerSeconds integrates
	// server downtime over the workload span.
	FaultsInjected    int
	VMsKilled         int
	Requeues          int
	WorkLost          units.Seconds
	DownServerSeconds float64
	// NominalWork is the workload's total demand in nominal-seconds
	// (Σ NominalTime × VMs over the submitted requests, re-queued redo
	// work excluded) — the goodput denominator's useful part.
	NominalWork units.Seconds
}

// SLAViolationPct is the paper's Fig.-7 metric.
func (m Metrics) SLAViolationPct() float64 {
	if m.TotalVMs == 0 {
		return 0
	}
	return 100 * float64(m.Violations) / float64(m.TotalVMs)
}

// AvailabilityPct is the fleet's availability over the workload span:
// the fraction of server-seconds in [first submission, last completion]
// during which the server was up, as a percentage.
func (m Metrics) AvailabilityPct(servers int) float64 {
	total := float64(servers) * float64(m.Makespan)
	if total <= 0 {
		return 100
	}
	pct := 100 * (1 - m.DownServerSeconds/total)
	if pct < 0 {
		return 0
	}
	return pct
}

// GoodputPct is the fraction of executed nominal-seconds that ended up
// in completed VMs rather than discarded by crashes: useful work over
// useful work plus work lost, as a percentage. 100 in a fault-free run.
func (m Metrics) GoodputPct() float64 {
	total := float64(m.NominalWork) + float64(m.WorkLost)
	if total <= 0 {
		return 100
	}
	return 100 * float64(m.NominalWork) / total
}

// Result is the simulation outcome. Per-VM outcomes are the finished
// spans of Config.Audit.
type Result struct {
	Metrics
}

// maxJobVMs is the per-request VM ceiling enforced by trace.Request
// validation; it bounds the fixed-size placement scratch.
const maxJobVMs = 4

// vmSlotIDs are the per-request VM identifiers handed to strategies.
// Strategies treat IDs as opaque and only need uniqueness within one
// Place call, so a static table avoids a fmt.Sprintf per VM per
// placement attempt (the reference path keeps the legacy "j<job>-<i>"
// form; the golden tests prove the outputs match).
var vmSlotIDs = [maxJobVMs]string{"0", "1", "2", "3"}

// simVM is one running VM. Its work-left counter does NOT live here:
// remaining is owned by the hosting server's rem slice, parallel to
// vms, so that advance/reschedule — the integration loops that run on
// every event — stream two compact arrays instead of chasing a pointer
// per VM (the single largest cost at the 100k-server scale). rem[i]
// and cls[i] describe vms[i]; every splice maintains all three.
type simVM struct {
	id       int    // dense uid; the "vm<id>" string forms lazily
	uid      string // cached string form, built only for migration snapshots
	jobID    int
	class    workload.Class
	submit   units.Seconds
	placed   units.Seconds
	deadline units.Seconds // absolute; 0 = unconstrained
	nominal  units.Seconds
	// attempt is the VM's 1-based requeue-chain number; only maintained
	// when Config.Audit is attached (zero otherwise, and unread).
	attempt int
}

// uidString formats the VM's migration-snapshot identifier on first use.
func (vm *simVM) uidString() string {
	if vm.uid == "" {
		vm.uid = "vm" + strconv.Itoa(vm.id)
	}
	return vm.uid
}

// simServer is one physical server's live state.
type simServer struct {
	id  int
	vms []*simVM
	// rem[i]/cls[i] are vms[i]'s nominal-seconds of work left and its
	// workload class — the structure-of-arrays mirror the per-event
	// integration loops run over (see simVM).
	rem        []float64
	cls        []uint8
	lastUpdate units.Seconds
	energy     units.Joules
	next       eventq.Handle
	activeFrom units.Seconds // when the server began hosting; -1 if empty
	// hostedSeconds accumulates the time spent hosting at least one VM;
	// the remainder of the workload span is billed at idle power.
	hostedSeconds float64
	// ai memoizes the pricing of the current allocation (valid while
	// non-nil; applyAlloc clears it): advance and reschedule price the
	// same unchanged allocation on every completion event, so the memo
	// turns two cache lookups per event into one pointer read. The
	// pointee lives in the dense pricing table (or its spill map), whose
	// entries are write-once — the pointer never dangles.
	ai *allocInfo
}

// allocInfo caches model-database pricing per allocation key.
type allocInfo struct {
	rate  [workload.NumClasses]float64 // nominal-seconds per wall-second
	power units.Watts
}

// denseCachePerClass bounds the dense pricing array: keys whose
// per-class counts all fall below this are cached in a flat
// (bound+1)³-entry table indexed arithmetically from the key, anything
// larger (consolidator overfill past a huge admission limit) falls back
// to a lazily-allocated map. Placement prices a handful of candidate
// keys per request, and at 10M requests the map's hashing was ~10% of
// the whole run; the dense table turns a lookup into one multiply-add
// and two slab reads. 16 mirrors the resident-slab carve-out bound.
const denseCachePerClass = 16

// denseCache is the simulator's pricing cache: the dense table plus the
// out-of-range spill map (nil until first needed).
type denseCache struct {
	d    int // exclusive per-component bound of the dense table
	ok   []bool
	info []allocInfo
	over map[model.Key]*allocInfo
}

// slot maps a key to its dense-table index, or -1 when any component
// falls outside [0, d) and the key must take the spill map.
func (c *denseCache) slot(k model.Key) int {
	d := c.d
	if uint(k.NCPU) < uint(d) && uint(k.NMEM) < uint(d) && uint(k.NIO) < uint(d) {
		return (k.NCPU*d+k.NMEM)*d + k.NIO
	}
	return -1
}

// Event kinds on the simulator's future-event list. Arrivals no longer
// appear on the list — they live on the sim's sorted arrival cursor and
// merge at pop time — but the kind keeps its historical slot so the
// fault/completion values stay stable.
const (
	evKindArrival eventq.Kind = iota
	evKindCompletion
	evKindCrash
	evKindRecover
)

// Sequence bands for the deterministic event order. Arrivals and fault
// events carry pre-assigned sequence numbers (arrival i gets
// seqArrivalBase+i in routed order, the sorted fault schedule's entry j
// gets seqFaultBase+2j / +2j+1 for its crash/recover pair), while
// everything scheduled during the run — completions — lands in the
// event queue's own band above eventq.SeqRuntimeBase. At equal
// timestamps the pop order is therefore arrivals, then
// crashes/recoveries (with a touching Up/Down pair on one server
// resolving recover-first), then completions in scheduling order —
// exactly the order the historical schedule-everything-up-front loop
// produced, but now independent of *when* the events are admitted.
// That independence is what lets the sharded engine admit arrivals and
// faults lazily, one time window at a time, and still replay the
// monolithic run byte for byte. Arrivals live on the sim's cursor
// rather than the heap; the cursor's tie rule — an arrival at time t
// pops before any heap event at t — is this band order restated, since
// the arrival band lies below both others.
const (
	seqArrivalBase uint64 = 0
	seqFaultBase   uint64 = 1 << 40
)

// pendingArrival is one not-yet-admitted request on the arrival
// cursor: its index into sim.reqs plus the arrival-band sequence
// number admission assigned. The submit instant is denormalized into
// the entry so that sorting and the pop-loop's head peeks touch only
// this compact array, never the fat request structs (at 10M requests
// the comparator's random reads into reqs dominated the sort).
type pendingArrival struct {
	sub units.Seconds
	seq uint64
	idx int32
}

type sim struct {
	cfg    Config
	reqs   []trace.Request
	events eventq.Queue
	now    units.Seconds
	srv    []*simServer
	// arrQ is the pending-arrival stream, ordered by (Submit, seq) with
	// arrNext as its cursor. Arrivals used to be scheduled on the
	// future-event list up front, which made the heap O(requests): at
	// the 10M-request scale the sift path's cache misses dominated the
	// whole run (BENCH_sim.json's SimHuge gap). Keeping them in a flat
	// sorted array caps the heap at O(busy servers + pending faults) and
	// pops arrivals in O(1); the merge rule at pop time — an arrival
	// wins any tie on the timestamp — is exactly the sequence-band order
	// (arrivals < faults < completions) the heap produced, so the event
	// order is unchanged byte for byte. Run admits the whole input and
	// sorts once if it was not already sorted (arrDirty); the sharded
	// coordinator's windowed admission appends in routed order, which is
	// nondecreasing in (Submit, seq) by construction.
	arrQ     []pendingArrival
	arrNext  int
	arrDirty bool
	// queue is the FIFO of request indices awaiting placement; qhead is
	// its logical start (popping slides the head instead of reslicing,
	// with periodic compaction).
	queue []int
	qhead int
	// fleet is the capacity index every placement goes through, and the
	// only record of each server's allocation, of the occupied-server
	// count and of which servers are down. indexed is the strategy
	// placing through it; hinter is set when the strategy can answer job
	// feasibility from the index's free-capacity summary, which lets
	// drainQueue skip provably futile placement attempts.
	fleet   *strategy.FleetIndex
	indexed strategy.IndexedPlacer
	hinter  strategy.CapacityHinter
	// cache memoizes Config.DB's pricing; refT is its per-class
	// reference time, the numerator of every progress rate.
	cache denseCache
	refT  [workload.NumClasses]units.Seconds

	// Placement scratch, reused across tryPlace calls.
	vmbuf     [maxJobVMs]core.VMRequest
	assignBuf [maxJobVMs]int
	// vmfree pools retired simVM structs; vmChunk is the arena fresh
	// structs are carved from in blocks, so pool growth costs one
	// allocation per vmChunkSize VMs instead of one per VM (the
	// large-fleet alloc-scaling fix — peak live VMs grows with the
	// fleet).
	vmfree  []*simVM
	vmChunk []simVM

	// Fault-mode state (see faults.go); allocated only when the config
	// carries a schedule, so fault-free runs pay exactly one bool check
	// on the paths that consult it.
	faulty     bool
	checkpoint faults.CheckpointPolicy
	downSince  []units.Seconds // per server; -1 while up
	downLog    []downSpan
	// faultSch is the sorted crash/recover schedule; faultNext indexes
	// the first entry not yet placed on the event list
	// (scheduleFaultsUntil admits entries window by window).
	faultSch  faults.Schedule
	faultNext int

	// stats/tr/audit/sampler are the telemetry hooks; with Config.Obs,
	// Config.Tracer, Config.Audit and Config.Sampler nil every hook is a
	// no-op (see obs.go, audit.go, sampler.go). nameBuf is the scratch
	// the trace hooks format event names in.
	stats   simStats
	tr      *obs.Tracer
	audit   *VMAudit
	sampler *FleetSampler
	nameBuf []byte
	// rec/wd are the decision flight recorder and the invariant
	// watchdog (nil when off, like the other telemetry handles).
	rec *DecisionRecorder
	wd  *obs.Watchdog

	uidSeq      int
	metrics     Metrics
	responseSum float64
	waitSum     float64
	firstSubmit units.Seconds
	lastFinish  units.Seconds
	// loadLeft is the outstanding admitted-but-unfinished work in
	// nominal-seconds (Σ nominal×VMs at admission, redo work swapped in
	// at kills, each VM's nominal removed at retire). The sharded
	// coordinator reads it at window barriers to route new jobs to the
	// least-loaded shard.
	loadLeft float64
	// loadAdded is the work ever added to loadLeft. Its rounding error
	// grows with every addition, so the work-conservation check scales
	// its tolerance with this sum rather than with what is outstanding.
	loadAdded float64
}

// Validate checks the user-facing configuration without normalizing
// defaults. Run and RunReference call it first (via validateConfig);
// callers assembling configs programmatically can call it early to
// surface wiring mistakes before building a workload.
func (cfg Config) Validate() error {
	if cfg.DB == nil {
		return errors.New("cloudsim: nil model database")
	}
	if cfg.Servers < 1 {
		return errors.New("cloudsim: need at least one server")
	}
	if cfg.Strategy == nil {
		return errors.New("cloudsim: nil strategy")
	}
	if cfg.MaxVMsPerServer < 0 {
		return errors.New("cloudsim: negative MaxVMsPerServer")
	}
	if cfg.BackfillDepth < 0 {
		return fmt.Errorf("cloudsim: negative BackfillDepth %d", cfg.BackfillDepth)
	}
	if err := cfg.Faults.Validate(cfg.Servers); err != nil {
		return fmt.Errorf("cloudsim: fault schedule: %w", err)
	}
	return nil
}

// validateConfig checks (Config.Validate) and then normalizes the
// configuration, shared by the optimized and reference runs.
func validateConfig(cfg Config, reqs []trace.Request) (Config, error) {
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if cfg.MaxVMsPerServer == 0 {
		cfg.MaxVMsPerServer = DefaultMaxVMsPerServer
	}
	switch {
	case cfg.IdleServerPower == 0:
		cfg.IdleServerPower = 125
	case cfg.IdleServerPower < 0:
		cfg.IdleServerPower = 0
	}
	if cfg.Checkpoint == nil {
		cfg.Checkpoint = faults.Restart{}
	}
	if len(reqs) == 0 {
		return cfg, errors.New("cloudsim: empty request stream")
	}
	if len(reqs) > math.MaxInt32 {
		return cfg, fmt.Errorf("cloudsim: %d requests exceed the event index range", len(reqs))
	}
	return cfg, nil
}

// refTimes reads the database's per-class reference times, which must
// all be positive: they are the numerators of every progress rate.
func refTimes(db *model.DB) (ref [workload.NumClasses]units.Seconds, err error) {
	for _, c := range workload.Classes {
		if ref[c] = db.Aux().RefTime[c]; ref[c] <= 0 {
			return ref, fmt.Errorf("cloudsim: database has no reference time for %v", c)
		}
	}
	return ref, nil
}

// Run simulates the request stream under the configured strategy.
func Run(cfg Config, reqs []trace.Request) (Result, error) {
	cfg, err := validateConfig(cfg, reqs)
	if err != nil {
		return Result{}, err
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return Result{}, err
		}
	}
	s, err := newSim(cfg, reqs)
	if err != nil {
		return Result{}, err
	}
	// The heap only ever holds one pending completion per server plus
	// the admitted fault events; arrivals live on the cursor.
	s.events.Reserve(cfg.Servers + 2*len(cfg.Faults))
	s.arrQ = make([]pendingArrival, 0, len(reqs))
	for i := range reqs {
		s.admit(i, uint64(i), reqs[i].Submit)
	}
	inf := units.Seconds(math.Inf(1))
	s.scheduleFaultsUntil(inf)
	if err := s.runUntil(inf); err != nil {
		return Result{}, err
	}
	return s.finalize(s.firstSubmit, s.lastFinish)
}

// newSim builds the simulator state for a normalized config over a
// pre-validated request stream. No arrivals or fault events are on the
// event list yet — Run schedules the whole input up front, the sharded
// coordinator admits it one time window at a time.
func newSim(cfg Config, reqs []trace.Request) (*sim, error) {
	ip, ok := cfg.Strategy.(strategy.IndexedPlacer)
	if !ok {
		return nil, fmt.Errorf("cloudsim: strategy %s does not implement strategy.IndexedPlacer", cfg.Strategy.Name())
	}
	s := &sim{
		cfg:         cfg,
		reqs:        reqs,
		firstSubmit: units.Seconds(math.Inf(1)),
		tr:          cfg.Tracer,
	}
	s.stats.init(cfg.Obs)
	s.events.Instrument(cfg.Obs)
	if s.audit = cfg.Audit; s.audit != nil {
		s.audit.reset()
	}
	if s.sampler = cfg.Sampler; s.sampler != nil {
		s.sampler.reset(cfg.Servers)
	}
	if s.rec = cfg.Recorder; s.rec != nil {
		s.rec.reset()
		// The decision counters register only when a recorder is
		// attached, so recorder-off registry snapshots are unchanged.
		s.stats.initDecision(cfg.Obs)
	}
	if s.wd = cfg.Watchdog; s.wd != nil {
		s.wd.Reset()
		s.wd.Bind(cfg.Obs)
		s.registerWatchdogChecks()
	}
	var err error
	if s.refT, err = refTimes(cfg.DB); err != nil {
		return nil, err
	}
	d := cfg.MaxVMsPerServer + 1
	if d > denseCachePerClass+1 {
		d = denseCachePerClass + 1
	}
	s.cache = denseCache{d: d, ok: make([]bool, d*d*d), info: make([]allocInfo, d*d*d)}
	// Server state lives in two slabs — the structs themselves and a
	// shared resident-VM backing carved into per-server capped slices —
	// so fleet setup costs O(1) allocations instead of O(servers)
	// (pinned by TestFleetAllocScaling). A server's resident slice can
	// outgrow its carve-out only past the admission limit (consolidator
	// overfill), where append falls back to a private array.
	slab := make([]simServer, cfg.Servers)
	resCap := cfg.MaxVMsPerServer
	if resCap > 16 {
		resCap = 16
	}
	residents := make([]*simVM, cfg.Servers*resCap)
	remSlab := make([]float64, cfg.Servers*resCap)
	clsSlab := make([]uint8, cfg.Servers*resCap)
	s.srv = make([]*simServer, cfg.Servers)
	for i := range s.srv {
		slab[i] = simServer{
			id: i, activeFrom: -1,
			vms: residents[i*resCap : i*resCap : (i+1)*resCap],
			rem: remSlab[i*resCap : i*resCap : (i+1)*resCap],
			cls: clsSlab[i*resCap : i*resCap : (i+1)*resCap],
		}
		s.srv[i] = &slab[i]
	}
	s.indexed = ip
	s.fleet = strategy.NewFleetIndex(cfg.Servers, cfg.MaxVMsPerServer)
	s.hinter, _ = cfg.Strategy.(strategy.CapacityHinter)
	s.traceSetup()
	if len(cfg.Faults) > 0 {
		s.setupFaults()
	}
	return s, nil
}

// admit puts request idx on the arrival cursor at instant at, under a
// pre-assigned arrival-band sequence number, and accounts its workload
// totals. In a monolithic run seq is simply idx; the sharded
// coordinator assigns global routing order instead. at is the request's
// Submit except for a job stolen from another shard at a window barrier
// (see stealHandoff), which enters at the handoff instant: the
// receiving shard's clock has moved past the submit, and re-entering in
// the past would rewind it. The request itself keeps its Submit, so
// wait and deadline accounting span the whole queue time. Admissions
// whose instants regress mark the cursor dirty; runUntil restores the
// sorted invariant before consuming it.
func (s *sim) admit(idx int, seq uint64, at units.Seconds) {
	r := &s.reqs[idx]
	if r.Submit < s.firstSubmit {
		s.firstSubmit = r.Submit
	}
	if n := len(s.arrQ); n > s.arrNext && s.arrQ[n-1].sub > at {
		s.arrDirty = true
	}
	s.arrQ = append(s.arrQ, pendingArrival{sub: at, seq: seqArrivalBase + seq, idx: int32(idx)})
	s.metrics.TotalJobs++
	s.metrics.TotalVMs += r.VMs
	s.metrics.NominalWork += r.NominalTime * units.Seconds(r.VMs)
	s.addLoad(float64(r.NominalTime) * float64(r.VMs))
}

// addLoad admits w nominal-seconds of work to the outstanding gauge.
func (s *sim) addLoad(w float64) {
	s.loadLeft += w
	s.loadAdded += w
}

// unadmit reverses a queued job's admission accounting so it can be
// handed off to another shard; the caller pops it from the queue.
func (s *sim) unadmit(idx int) {
	r := &s.reqs[idx]
	s.metrics.TotalJobs--
	s.metrics.TotalVMs -= r.VMs
	s.metrics.NominalWork -= r.NominalTime * units.Seconds(r.VMs)
	s.loadLeft -= float64(r.NominalTime) * float64(r.VMs)
}

// sortArrivals restores the cursor's (Submit, seq) order after
// out-of-order admissions — an unsorted input stream handed to Run.
// Admissions carry strictly increasing seqs, so ordering by (sub, seq)
// with an unstable sort reproduces exactly the stable-by-Submit order
// the future-event list used to pop them in, without the stable sort's
// merge passes or the reflection-based swapper.
func (s *sim) sortArrivals() {
	slices.SortFunc(s.arrQ[s.arrNext:], func(a, b pendingArrival) int {
		switch {
		case a.sub != b.sub:
			if a.sub < b.sub {
				return -1
			}
			return 1
		case a.seq < b.seq:
			return -1
		default:
			return 1
		}
	})
	s.arrDirty = false
}

// nextPendingInstant is the earliest instant anything is scheduled to
// happen: the arrival cursor's head or the future-event list's top.
// The sharded coordinator reads it at barriers to bound its windows.
func (s *sim) nextPendingInstant() (units.Seconds, bool) {
	at, ok := s.events.Peek()
	if s.arrNext < len(s.arrQ) {
		if a := s.arrQ[s.arrNext].sub; !ok || a < at {
			return a, true
		}
	}
	return at, ok
}

// runUntil processes events with timestamps strictly below limit (pass
// +Inf to drain the list). On return every effect of events before
// limit — placements, completions, fault re-queues — has been applied.
// The arrival cursor merges with the future-event list here: at equal
// timestamps an arrival pops first, which is the sequence-band order
// (arrivals < faults < completions) of the historical all-on-one-heap
// loop, so the event order is unchanged.
func (s *sim) runUntil(limit units.Seconds) error {
	if s.arrDirty {
		s.sortArrivals()
	}
	for {
		at, ok := s.events.Peek()
		if s.arrNext < len(s.arrQ) {
			if a := s.arrQ[s.arrNext].sub; !ok || a <= at {
				if a >= limit {
					return nil
				}
				idx := int(s.arrQ[s.arrNext].idx)
				s.arrNext++
				s.now = a
				s.stats.eventsPopped.Inc()
				s.queue = append(s.queue, idx)
				s.stats.queueDepthHW.SetMax(int64(s.qlen()))
				s.traceArrival(idx)
				s.traceQueueDepth()
				if s.rec != nil {
					s.recordAdmit(idx)
				}
				if err := s.drainQueue(); err != nil {
					return err
				}
				// Tick after the event's effects are applied: a sweep must
				// see consistent state, never a popped-but-unqueued request.
				s.wd.Tick(float64(a))
				continue
			}
		}
		if !ok || at >= limit {
			return nil
		}
		_, ev, _ := s.events.Pop()
		s.now = at
		s.stats.eventsPopped.Inc()
		switch ev.Kind {
		case evKindCompletion:
			if err := s.complete(int(ev.Arg)); err != nil {
				return err
			}
			if err := s.consolidate(); err != nil {
				return err
			}
			if err := s.drainQueue(); err != nil {
				return err
			}
		case evKindCrash:
			if err := s.crash(int(ev.Arg)); err != nil {
				return err
			}
			if err := s.drainQueue(); err != nil {
				return err
			}
		case evKindRecover:
			if err := s.recoverServer(int(ev.Arg)); err != nil {
				return err
			}
			if err := s.drainQueue(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cloudsim: unknown event kind %d", ev.Kind)
		}
		s.wd.Tick(float64(at))
	}
}

// finalize folds per-server energy and active time over the workload
// span [first, last] and returns the run's result. Run passes the span
// its own events established; the sharded coordinator passes the global
// span so every shard bills idle power over the same window.
func (s *sim) finalize(first, last units.Seconds) (Result, error) {
	// One last watchdog sweep over the end-of-run state, before the
	// idle-energy fold below rewrites the per-server integrals.
	s.wd.RunChecks(float64(s.now))
	if n := s.qlen(); n > 0 {
		return Result{}, fmt.Errorf("cloudsim: %d jobs still queued at end of simulation (strategy starved them)", n)
	}
	if n := len(s.arrQ) - s.arrNext; n > 0 {
		return Result{}, fmt.Errorf("cloudsim: %d admitted arrivals never reached the event loop", n)
	}
	s.firstSubmit, s.lastFinish = first, last

	// Each provisioned server draws the fixed idle power for every
	// second of the workload span it spends hosting nothing (while
	// hosting, the model record's average power — which includes the
	// idle floor — was integrated). Downtime draws nothing: a crashed
	// server is powered off, so its down-seconds within the span are
	// carved out of the idle billing.
	span := last - first
	downBySrv := s.foldDowntime()
	for _, sv := range s.srv {
		if len(sv.vms) != 0 {
			return Result{}, fmt.Errorf("cloudsim: server %d still hosts %d VMs at end", sv.id, len(sv.vms))
		}
		idle := float64(span) - sv.hostedSeconds
		if downBySrv != nil {
			idle -= downBySrv[sv.id]
		}
		if idle > 0 {
			e := s.cfg.IdleServerPower.Times(units.Seconds(idle))
			sv.energy += e
			if s.sampler != nil {
				s.sampler.addIdle(e)
			}
		}
		s.metrics.Energy += sv.energy
	}
	if s.metrics.TotalVMs > 0 {
		s.metrics.AvgResponse = units.Seconds(s.responseSum / float64(s.metrics.TotalVMs))
		s.metrics.AvgWait = units.Seconds(s.waitSum / float64(s.metrics.TotalVMs))
	}
	s.metrics.Makespan = span
	return Result{Metrics: s.metrics}, nil
}

// qlen is the number of queued (not yet placed) requests.
func (s *sim) qlen() int { return len(s.queue) - s.qhead }

// qat returns the i-th queued request index (0 = head).
func (s *sim) qat(i int) int { return s.queue[s.qhead+i] }

// qpophead drops the head, compacting the backing slice once the dead
// prefix dominates it.
func (s *sim) qpophead() {
	s.qhead++
	if s.qhead >= 64 && s.qhead*2 >= len(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		s.qhead = 0
	}
}

// qremove splices out the i-th queued request (i > 0).
func (s *sim) qremove(i int) {
	j := s.qhead + i
	copy(s.queue[j:], s.queue[j+1:])
	s.queue = s.queue[:len(s.queue)-1]
}

// zeroAllocInfo is what an empty allocation prices to: no progress, no
// power. Shared so info can hand out a pointer without allocating.
var zeroAllocInfo allocInfo

// info prices an allocation, caching database estimates. The returned
// pointer aims into the dense table (or its spill map), whose entries
// are write-once, so callers and the per-server memo may hold it
// indefinitely.
func (s *sim) info(k model.Key) (*allocInfo, error) {
	if k.IsZero() {
		return &zeroAllocInfo, nil
	}
	ca := &s.cache
	slot := ca.slot(k)
	if slot >= 0 {
		if ca.ok[slot] {
			s.stats.pricingHits.Inc()
			return &ca.info[slot], nil
		}
	} else if ai, ok := ca.over[k]; ok {
		s.stats.pricingHits.Inc()
		return ai, nil
	}
	s.stats.pricingMisses.Inc()
	rec, err := s.cfg.DB.Estimate(k)
	if err != nil {
		return nil, fmt.Errorf("cloudsim: pricing %v: %w", k, err)
	}
	var ai allocInfo
	ai.power = rec.AvgPower()
	for _, c := range workload.Classes {
		ct := rec.ClassTime(c)
		if ct <= 0 {
			return nil, fmt.Errorf("cloudsim: record %v has no usable time for %v", k, c)
		}
		ai.rate[c] = float64(s.refT[c]) / float64(ct)
	}
	if slot >= 0 {
		ca.info[slot], ca.ok[slot] = ai, true
		return &ca.info[slot], nil
	}
	if ca.over == nil {
		ca.over = map[model.Key]*allocInfo{}
	}
	p := new(allocInfo)
	*p = ai
	ca.over[k] = p
	return p, nil
}

// infoFor prices a server's *current* allocation, memoized on the
// server until the allocation changes. advance and reschedule price the
// same unchanged key on every completion event, so the memo replaces
// the pricing cache probe with one pointer read on the hot path; a
// memo hit still counts as a pricing-cache hit. Only servers with
// residents are priced, so the key is never zero, and a key the memo
// held is already cached: hit and miss counts match a memo keyed on
// the allocation.
func (s *sim) infoFor(sv *simServer) (*allocInfo, error) {
	if sv.ai != nil {
		s.stats.pricingHits.Inc()
		return sv.ai, nil
	}
	ai, err := s.info(s.fleet.Alloc(sv.id))
	if err != nil {
		return nil, err
	}
	sv.ai = ai
	return ai, nil
}

// applyAlloc shifts a server's allocation in the capacity index by
// delta VMs of class c and drops its pricing memo.
func (s *sim) applyAlloc(sv *simServer, c workload.Class, delta int) {
	s.fleet.Add(sv.id, c, delta)
	sv.ai = nil
}

// advance integrates a server's VM progress and energy up to now.
func (s *sim) advance(sv *simServer) error {
	dt := s.now - sv.lastUpdate
	if dt < 0 {
		return fmt.Errorf("cloudsim: time ran backwards on server %d", sv.id)
	}
	if dt > 0 && len(sv.vms) > 0 {
		ai, err := s.infoFor(sv)
		if err != nil {
			return err
		}
		fdt := float64(dt)
		rem, cls := sv.rem, sv.cls
		for i := range rem {
			rem[i] -= ai.rate[cls[i]] * fdt
		}
		sv.energy += ai.power.Times(dt)
		// One Fig.-4 interval closed: the resident set was constant over
		// [lastUpdate, now) and its progress/energy just integrated.
		s.stats.intervalsClosed.Inc()
		if s.sampler != nil {
			s.sampler.interval(s.now, sv.id, ai.power, len(sv.vms), dt, s.fleet.NumOccupied(), s.fleet.Len()-s.fleet.NumUp(), s.qlen())
		}
	}
	sv.lastUpdate = s.now
	return nil
}

// reschedule recomputes the server's next completion event, moving the
// pending one in place when there is one (an in-place move costs one
// sift; a cancel-and-reinsert pair costs two on a heap this hot).
func (s *sim) reschedule(sv *simServer) error {
	if len(sv.vms) == 0 {
		s.events.Cancel(sv.next)
		sv.next = eventq.Handle{}
		return nil
	}
	ai, err := s.infoFor(sv)
	if err != nil {
		return err
	}
	// Rates are validated at allocInfo construction (info errors on any
	// non-positive class time), and a server with residents always has a
	// non-zero alloc key, so every rate read here is positive — no
	// per-VM guard in the scan.
	best := math.MaxFloat64
	for i, rem := range sv.rem {
		if rem < 0 {
			rem = 0
		}
		fin := rem / ai.rate[sv.cls[i]]
		if fin < best {
			best = fin
		}
	}
	ev := eventq.Event{Kind: evKindCompletion, Arg: int32(sv.id)}
	if h, ok := s.events.Reschedule(sv.next, s.now+units.Seconds(best), ev); ok {
		sv.next = h
		return nil
	}
	sv.next = s.events.Schedule(s.now+units.Seconds(best), ev)
	return nil
}

// complete handles a server's completion event: it retires every VM whose
// work has run out.
func (s *sim) complete(serverIdx int) error {
	sv := s.srv[serverIdx]
	// Fused advance + retirement scan: one pass over the resident slabs
	// both integrates progress and splits out finished VMs, where a
	// s.advance(sv) call followed by the compaction would walk them
	// twice. The arithmetic is advance's exactly (r -= rate*dt in slab
	// order), so results stay bit-identical to the unfused path.
	dt := s.now - sv.lastUpdate
	if dt < 0 {
		return fmt.Errorf("cloudsim: time ran backwards on server %d", sv.id)
	}
	ai := &zeroAllocInfo
	fdt := float64(dt)
	if dt > 0 && len(sv.vms) > 0 {
		var err error
		ai, err = s.infoFor(sv)
		if err != nil {
			return err
		}
		sv.energy += ai.power.Times(dt)
		// One Fig.-4 interval closed: the resident set was constant over
		// [lastUpdate, now) and its progress/energy just integrated.
		s.stats.intervalsClosed.Inc()
		if s.sampler != nil {
			s.sampler.interval(s.now, sv.id, ai.power, len(sv.vms), dt, s.fleet.NumOccupied(), s.fleet.Len()-s.fleet.NumUp(), s.qlen())
		}
	}
	sv.lastUpdate = s.now
	const eps = 1e-6
	wasHosting := len(sv.vms) > 0
	w := 0
	for i, vm := range sv.vms {
		// When dt == 0 the zero-valued ai contributes rate 0 and the
		// subtraction is exact identity, matching advance's skip.
		r := sv.rem[i] - ai.rate[sv.cls[i]]*fdt
		if r > eps {
			if w != i {
				sv.vms[w], sv.cls[w] = vm, sv.cls[i]
			}
			sv.rem[w] = r
			w++
			continue
		}
		s.applyAlloc(sv, vm.class, -1)
		s.retire(sv, vm)
		s.recycle(vm)
	}
	for i := w; i < len(sv.vms); i++ {
		sv.vms[i] = nil
	}
	sv.vms, sv.rem, sv.cls = sv.vms[:w], sv.rem[:w], sv.cls[:w]
	if len(sv.vms) == 0 {
		if sv.activeFrom >= 0 {
			s.traceHosting(sv, sv.activeFrom)
			hosted := float64(s.now - sv.activeFrom)
			s.metrics.ActiveServerSeconds += hosted
			sv.hostedSeconds += hosted
			sv.activeFrom = -1
		}
		if wasHosting && s.sampler != nil {
			s.sampler.serverIdle(sv.id)
		}
	}
	return s.reschedule(sv)
}

// retire records a finished VM's metrics.
func (s *sim) retire(sv *simServer, vm *simVM) {
	if s.now > s.lastFinish {
		s.lastFinish = s.now
	}
	s.loadLeft -= float64(vm.nominal)
	response := s.now - vm.submit
	s.responseSum += float64(response)
	s.waitSum += float64(vm.placed - vm.submit)
	violated := vm.deadline > 0 && s.now > vm.deadline
	if violated {
		s.metrics.Violations++
	}
	s.stats.vmWait.Observe(float64(vm.placed - vm.submit))
	s.stats.vmStretch.Observe(stretchOf(vm, s.now))
	if s.audit != nil {
		s.audit.finish(vm, sv.id, s.now, violated)
	}
	s.traceVMRetire(sv, vm, violated)
}

// recycle returns a retired VM's struct to the pool.
func (s *sim) recycle(vm *simVM) {
	*vm = simVM{}
	s.vmfree = append(s.vmfree, vm)
}

// vmChunkSize is the arena block newVM carves fresh structs from.
const vmChunkSize = 256

// newVM takes a VM struct from the pool, or carves one from the arena.
func (s *sim) newVM() *simVM {
	if n := len(s.vmfree); n > 0 {
		vm := s.vmfree[n-1]
		s.vmfree[n-1] = nil
		s.vmfree = s.vmfree[:n-1]
		return vm
	}
	if len(s.vmChunk) == 0 {
		s.vmChunk = make([]simVM, vmChunkSize)
	}
	vm := &s.vmChunk[0]
	s.vmChunk = s.vmChunk[1:]
	return vm
}

// consolidate snapshots the live cloud for the Consolidator and applies
// the returned migration plan: each moved VM is advanced to now, moved,
// and charged the migration cost as additional nominal work.
func (s *sim) consolidate() error {
	if s.cfg.Consolidator == nil {
		return nil
	}
	allocs := make([]model.Key, len(s.srv))
	var snapshot []migrate.VM
	byUID := map[string]*simVM{}
	// Skip the empty servers: one contributes a zero alloc key (already
	// the slice's zero value) and no snapshot entries, and no energy,
	// intervals or samples accrue without residents. Only its clock
	// would move, and a move onto it starts the clock below.
	for i, sv := range s.srv {
		if s.fleet.Used(i) == 0 {
			continue
		}
		// Bring accounting up to now so Remaining values are current.
		if err := s.advance(sv); err != nil {
			return err
		}
		allocs[i] = s.fleet.Alloc(i)
		for vi, vm := range sv.vms {
			budget := units.Seconds(0)
			if vm.deadline > 0 {
				budget = vm.deadline - s.now
				if budget < 0 {
					budget = 0 // already violated; free to move
				}
			}
			rem := sv.rem[vi]
			if rem < 0 {
				rem = 0
			}
			uid := vm.uidString()
			snapshot = append(snapshot, migrate.VM{
				ID:        uid,
				Class:     vm.class,
				Server:    i,
				Remaining: units.Seconds(rem),
				Budget:    budget,
			})
			byUID[uid] = vm
		}
	}
	if len(snapshot) == 0 {
		return nil
	}
	plan, err := s.cfg.Consolidator.Propose(allocs, snapshot)
	if err != nil {
		return fmt.Errorf("cloudsim: consolidator: %w", err)
	}
	if len(plan.Moves) == 0 {
		return nil
	}
	if plan.MigrationCost < 0 {
		return fmt.Errorf("cloudsim: consolidator plan has negative MigrationCost %v", plan.MigrationCost)
	}
	touched := make([]int, 0, 2*len(plan.Moves))
	for _, mv := range plan.Moves {
		vm := byUID[mv.VMID]
		if vm == nil || mv.From < 0 || mv.From >= len(s.srv) || mv.To < 0 || mv.To >= len(s.srv) || mv.From == mv.To {
			return fmt.Errorf("cloudsim: consolidator returned invalid move %+v", mv)
		}
		if s.fleet.Down(mv.To) {
			// The consolidator's snapshot carries no liveness, so a plan
			// may target a crashed server; skip the move (counted) rather
			// than abort a healthy run.
			s.stats.movesToDownSkipped.Inc()
			if s.rec != nil {
				s.recordMigrate(vm.id, vm.jobID, mv.From, mv.To, MigrateTargetDown)
			}
			continue
		}
		from, to := s.srv[mv.From], s.srv[mv.To]
		idx := -1
		for i, resident := range from.vms {
			if resident == vm {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("cloudsim: move %+v: VM not on source server", mv)
		}
		movedRem := from.rem[idx] + float64(plan.MigrationCost)
		movedCls := from.cls[idx]
		from.vms = append(from.vms[:idx], from.vms[idx+1:]...)
		from.rem = append(from.rem[:idx], from.rem[idx+1:]...)
		from.cls = append(from.cls[:idx], from.cls[idx+1:]...)
		s.applyAlloc(from, vm.class, -1)
		if len(to.vms) == 0 {
			// The snapshot skipped this empty server: start its clock at
			// now, or its next interval would run from when it emptied.
			if err := s.advance(to); err != nil {
				return err
			}
			if to.activeFrom < 0 {
				to.activeFrom = s.now
			}
		}
		to.vms = append(to.vms, vm)
		to.rem = append(to.rem, movedRem)
		to.cls = append(to.cls, movedCls)
		s.applyAlloc(to, vm.class, 1)
		touched = append(touched, mv.From, mv.To)
		s.metrics.Migrations++
		if s.rec != nil {
			s.recordMigrate(vm.id, vm.jobID, mv.From, mv.To, "")
		}
	}
	s.metrics.ServersDrained += plan.ServersDrained
	// Server-order iteration keeps event tie-breaking deterministic (see
	// tryPlace): sort the touched ids and skip duplicates instead of
	// probing a membership map across the whole fleet.
	slices.Sort(touched)
	prev := -1
	for _, i := range touched {
		if i == prev {
			continue
		}
		prev = i
		sv := s.srv[i]
		if len(sv.vms) == 0 && sv.activeFrom >= 0 {
			s.traceHosting(sv, sv.activeFrom)
			hosted := float64(s.now - sv.activeFrom)
			s.metrics.ActiveServerSeconds += hosted
			sv.hostedSeconds += hosted
			sv.activeFrom = -1
			if s.sampler != nil {
				s.sampler.serverIdle(sv.id)
			}
		}
		if err := s.reschedule(sv); err != nil {
			return err
		}
	}
	return nil
}

// drainQueue attempts FIFO placement of waiting jobs, stopping at the
// first job the strategy cannot place (FCFS without backfilling, so a
// blocked head preserves submission order). With Config.BackfillDepth
// set, up to that many jobs behind a blocked head are offered too: the
// window is scanned once in submission order — a successful backfill
// splices the job out (the next candidate slides into its position) and
// re-checks the head, rather than restarting the window from scratch.
func (s *sim) drainQueue() error {
	// noFit memoizes the smallest VM count the capacity summary has
	// proved unplaceable during this drain. Free capacity only shrinks
	// while draining (placements consume it, nothing releases it), and
	// exact CanFit answers are monotone in job size, so the threshold
	// stays valid for the whole call.
	noFit := int(^uint(0) >> 1)
	for s.qlen() > 0 {
		headOK := false
		if s.mayFit(s.qat(0), &noFit) {
			ok, err := s.tryPlace(s.qat(0))
			if err != nil {
				return err
			}
			headOK = ok
		}
		if headOK {
			s.qpophead()
			s.traceQueueDepth()
			continue
		}
		// Head blocked: one pass over the backfill window.
		headPlaced := false
		for i := 1; i < s.qlen() && i <= s.cfg.BackfillDepth; {
			if !s.mayFit(s.qat(i), &noFit) {
				i++
				continue
			}
			ok, err := s.tryPlace(s.qat(i))
			if err != nil {
				return err
			}
			if !ok {
				i++
				continue
			}
			s.stats.backfillSplices.Inc()
			s.qremove(i)
			s.traceQueueDepth()
			// Re-check the head right after a successful backfill: if it
			// fits now, the FCFS drain resumes; otherwise keep scanning
			// from the same position.
			if !s.mayFit(s.qat(0), &noFit) {
				continue
			}
			ok, err = s.tryPlace(s.qat(0))
			if err != nil {
				return err
			}
			if ok {
				s.qpophead()
				s.traceQueueDepth()
				headPlaced = true
				break
			}
		}
		if !headPlaced {
			return nil
		}
	}
	return nil
}

// mayFit reports whether a placement attempt for request idx could
// possibly succeed right now. A false return is backed by the capacity
// summary's exact first-fit feasibility count — the attempt is provably
// futile and drainQueue skips it, which is what turns a long blocked
// queue's per-event rescan from O(queue × placement) into O(queue)
// summary lookups. noFit is the caller's scan memo (see drainQueue):
// jobs at or above an already-proved-unplaceable size skip the summary
// query too. Without a hinting strategy every attempt proceeds.
func (s *sim) mayFit(idx int, noFit *int) bool {
	if s.hinter == nil {
		return true
	}
	n := s.reqs[idx].VMs
	if n >= *noFit {
		s.stats.fitSkips.Inc()
		if s.rec != nil {
			s.recordReject(idx, RejectFitWatermark)
		}
		return false
	}
	fits, exact := s.hinter.CanFit(s.fleet, n)
	if fits || !exact {
		return true
	}
	*noFit = n
	s.stats.fitSkips.Inc()
	if s.rec != nil {
		s.recordReject(idx, RejectFitSummary)
	}
	return false
}

// tryPlace asks the strategy to place one request and commits the
// placement if accepted. ok=false means the job waits; a non-nil error
// means the simulation state is unrecoverable (a mid-commit accounting
// failure must abort the run, not strand half-placed VMs while the job
// stays queued).
func (s *sim) tryPlace(idx int) (bool, error) {
	s.stats.placeAttempts.Inc()
	req := &s.reqs[idx]
	vms := s.vmbuf[:req.VMs]
	for i := range vms {
		// The allocator's QoS input is the request's maximum execution
		// time — a static property of the request (Sect. III.D), which is
		// what bounds how deeply the proactive strategies consolidate.
		// Whether the response-time deadline (submission + MaxResponse)
		// was ultimately met is judged at completion.
		vms[i] = core.VMRequest{
			ID:          vmSlotIDs[i],
			Class:       req.Class,
			NominalTime: req.NominalTime,
			MaxTime:     req.MaxResponse,
		}
	}
	// The index itself excludes down servers (FleetIndex.SetDown). With
	// a recorder on, a strategy that explains itself decides through
	// PlaceIndexedExplained — identical decisions by the contract, plus
	// the search stats the flight log captures.
	var assign []int
	var ok bool
	var info *strategy.PlaceInfo
	var ie strategy.IndexedExplainer
	if s.rec != nil {
		ie, _ = s.indexed.(strategy.IndexedExplainer)
	}
	if ie != nil {
		var pi strategy.PlaceInfo
		assign, ok, pi = ie.PlaceIndexedExplained(s.fleet, vms, s.assignBuf[:])
		info = &pi
	} else {
		assign, ok = s.indexed.PlaceIndexed(s.fleet, vms, s.assignBuf[:])
	}
	if !ok {
		s.stats.placeRejected.Inc()
		if s.rec != nil {
			reason := RejectStrategy
			if info != nil && info.Waited {
				reason = RejectQoSWait
			}
			s.recordReject(idx, reason)
		}
		return false, nil
	}
	if len(assign) != len(vms) {
		// A strategy bug; refuse the placement rather than corrupt state.
		s.stats.placeRejected.Inc()
		if s.rec != nil {
			s.recordReject(idx, RejectStrategyInvalid)
		}
		return false, nil
	}
	// Validate before mutating: server bounds and the admission cap,
	// with per-server add counts collected in fixed scratch.
	var targets, counts [maxJobVMs]int
	nt := 0
	for _, a := range assign {
		if a < 0 || a >= len(s.srv) || s.fleet.Down(a) {
			// Out-of-range or down target: a strategy bug; refuse it.
			s.stats.placeRejected.Inc()
			if s.rec != nil {
				s.recordReject(idx, RejectStrategyInvalid)
			}
			return false, nil
		}
		seen := false
		for t := 0; t < nt; t++ {
			if targets[t] == a {
				counts[t]++
				seen = true
				break
			}
		}
		if !seen {
			targets[nt], counts[nt] = a, 1
			nt++
		}
	}
	for t := 0; t < nt; t++ {
		if s.fleet.Used(targets[t])+counts[t] > s.cfg.MaxVMsPerServer {
			s.stats.placeRejected.Inc()
			if s.rec != nil {
				s.recordReject(idx, RejectAdmissionCap)
			}
			return false, nil
		}
	}
	// Bring every target server's accounting up to now before mutating
	// its allocation (the closing of a Fig.-4 interval). Iterate in
	// server order: rescheduling enqueues events whose FIFO tie-break
	// among equal timestamps must not depend on iteration order, or the
	// simulation loses determinism.
	for i := 1; i < nt; i++ {
		for j := i; j > 0 && targets[j] < targets[j-1]; j-- {
			targets[j], targets[j-1] = targets[j-1], targets[j]
		}
	}
	for t := 0; t < nt; t++ {
		if err := s.advance(s.srv[targets[t]]); err != nil {
			return false, err
		}
	}
	deadline := req.Submit + req.MaxResponse
	var uids [maxJobVMs]int
	for vi, a := range assign {
		sv := s.srv[a]
		if len(sv.vms) == 0 && sv.activeFrom < 0 {
			sv.activeFrom = s.now
		}
		s.uidSeq++
		uids[vi] = s.uidSeq
		vm := s.newVM()
		vm.id = s.uidSeq
		vm.jobID = req.ID
		vm.class = req.Class
		vm.submit = req.Submit
		vm.placed = s.now
		vm.deadline = deadline
		vm.nominal = req.NominalTime
		if s.audit != nil {
			vm.attempt = s.audit.attemptOf(idx)
		}
		sv.vms = append(sv.vms, vm)
		sv.rem = append(sv.rem, float64(req.NominalTime))
		sv.cls = append(sv.cls, uint8(req.Class))
		s.applyAlloc(sv, req.Class, 1)
	}
	for t := 0; t < nt; t++ {
		if err := s.reschedule(s.srv[targets[t]]); err != nil {
			return false, err
		}
	}
	if n := s.fleet.NumOccupied(); n > s.metrics.PeakActiveServers {
		s.metrics.PeakActiveServers = n
	}
	s.tracePlaced(idx, assign[0])
	if s.rec != nil {
		s.recordPlace(idx, assign, uids[:len(vms)], info)
	}
	return true, nil
}
