package cloudsim

// Telemetry for the optimized event loop: counter/gauge handles over
// Config.Obs and the simulated-time trace recorder over Config.Tracer.
// Everything here is observation only — no simulation state is read
// back from it — and with both fields nil every hook is a nil-receiver
// no-op, so the disabled path stays allocation-free (pinned by
// TestObsDisabledAllocFree and the golden equivalence tests).

import (
	"strconv"

	"pacevm/internal/obs"
	"pacevm/internal/units"
)

// Trace track layout: pid 1 carries one thread per server (occupancy
// spans with nested VM slices), pid 2 carries the workload (arrival
// instants, the queue-depth counter track, and the tails of the
// arrival→placement flow arrows).
const (
	tracePidServers  = 1
	tracePidWorkload = 2
	// tracePidCoord is the sharded coordinator's process in a merged
	// cross-shard timeline (tid 0 = synchronization windows, tid 1 =
	// admission steals); never emitted by a monolithic run.
	tracePidCoord = 3
)

// simStats is the registry-backed counter set of one run.
type simStats struct {
	eventsPopped    *obs.Counter
	placeAttempts   *obs.Counter
	placeRejected   *obs.Counter
	queueDepthHW    *obs.Gauge
	backfillSplices *obs.Counter
	intervalsClosed *obs.Counter
	pricingHits     *obs.Counter
	pricingMisses   *obs.Counter
	// fitSkips counts queued jobs drainQueue never attempted because the
	// capacity summary proved the fleet cannot hold them.
	fitSkips *obs.Counter
	// admissionSteals counts queued jobs this shard handed off to
	// another shard at a window barrier (ShardConfig.Steal); always zero
	// in monolithic and steal-off runs.
	admissionSteals *obs.Counter
	// Fault-layer counters; they only ever move in fault mode.
	faultsInjected     *obs.Counter
	vmsKilled          *obs.Counter
	requeues           *obs.Counter
	workLostSeconds    *obs.Counter // whole nominal-seconds (Metrics.WorkLost is exact)
	movesToDownSkipped *obs.Counter
	// Per-VM outcome digests, observed at retire: wait (placed − submit)
	// and stretch ((end − submit) / nominal).
	vmWait    *obs.Quantile
	vmStretch *obs.Quantile
	// Decision flight-recorder counters, resolved by initDecision only
	// when Config.Recorder is attached so that a recorder-off run's
	// registry snapshot is unchanged (the routes counter lives in
	// RunSharded, the steals counter above moves either way).
	decisionAdmits  *obs.Counter
	decisionPlaces  *obs.Counter
	decisionRejects *obs.Counter
}

// init resolves the handles; from a nil registry every handle is nil
// and each hook costs exactly its nil check.
func (st *simStats) init(reg *obs.Registry) {
	st.eventsPopped = reg.Counter("sim_events_popped")
	st.placeAttempts = reg.Counter("sim_place_attempts")
	st.placeRejected = reg.Counter("sim_place_rejected")
	st.queueDepthHW = reg.Gauge("sim_queue_depth_highwater")
	st.backfillSplices = reg.Counter("sim_backfill_splices")
	st.intervalsClosed = reg.Counter("sim_intervals_closed")
	st.pricingHits = reg.Counter("sim_pricing_cache_hits")
	st.pricingMisses = reg.Counter("sim_pricing_cache_misses")
	st.fitSkips = reg.Counter("sim_fit_skips_total")
	st.admissionSteals = reg.Counter("sim_admission_steals_total")
	st.faultsInjected = reg.Counter("sim_faults_injected")
	st.vmsKilled = reg.Counter("sim_vms_killed")
	st.requeues = reg.Counter("sim_requeues")
	st.workLostSeconds = reg.Counter("sim_work_lost_seconds")
	st.movesToDownSkipped = reg.Counter("sim_consolidator_moves_to_down_skipped")
	st.vmWait = reg.Quantile("sim_vm_wait_seconds")
	st.vmStretch = reg.Quantile("sim_vm_stretch")
}

// initDecision resolves the flight-recorder counters; called only when
// a DecisionRecorder is attached (see simStats).
func (st *simStats) initDecision(reg *obs.Registry) {
	st.decisionAdmits = reg.Counter("sim_decision_admits_total")
	st.decisionPlaces = reg.Counter("sim_decision_places_total")
	st.decisionRejects = reg.Counter("sim_decision_rejects_total")
}

// traceSetup names the trace tracks. Thread-name metadata is emitted
// per server up front so a loaded trace reads "server N", not "tid N".
func (s *sim) traceSetup() {
	if s.tr == nil {
		return
	}
	s.tr.NameProcess(tracePidServers, "servers")
	s.tr.NameProcess(tracePidWorkload, "workload")
	s.tr.NameThread(tracePidWorkload, 0, "queue")
	for i := range s.srv {
		s.tr.NameThread(tracePidServers, i, "server "+strconv.Itoa(i))
	}
}

// Typed args payloads for the per-event trace hooks. Each struct's
// fields are tagged in ascending key order, so it serializes
// byte-identically to the map[string]any the hooks historically built
// (encoding/json sorts map keys) at one allocation per event instead of
// a map plus one boxing allocation per entry — the BenchmarkSimTrace
// churn fix, pinned by TestTraceTypedArgsByteIdentical.
type traceArrivalArgs struct {
	Class string `json:"class"`
	Job   int    `json:"job"`
	VMs   int    `json:"vms"`
}

type traceRetireArgs struct {
	Class    string  `json:"class"`
	Job      int     `json:"job"`
	Submit   float64 `json:"submit"`
	Violated bool    `json:"violated"`
	Wait     float64 `json:"wait"`
}

type traceKillArgs struct {
	Class  string `json:"class"`
	Job    int    `json:"job"`
	Killed bool   `json:"killed"`
}

// jobName formats "job <id>" in the sim-owned scratch buffer: one
// string allocation per call, no intermediate itoa string.
func (s *sim) jobName(id int) string {
	s.nameBuf = append(s.nameBuf[:0], "job "...)
	s.nameBuf = strconv.AppendInt(s.nameBuf, int64(id), 10)
	return string(s.nameBuf)
}

// vmName formats "vm<id> job <jobID>" (plus an optional suffix) the
// same way.
func (s *sim) vmName(vm *simVM, suffix string) string {
	s.nameBuf = append(s.nameBuf[:0], "vm"...)
	s.nameBuf = strconv.AppendInt(s.nameBuf, int64(vm.id), 10)
	s.nameBuf = append(s.nameBuf, " job "...)
	s.nameBuf = strconv.AppendInt(s.nameBuf, int64(vm.jobID), 10)
	s.nameBuf = append(s.nameBuf, suffix...)
	return string(s.nameBuf)
}

// traceArrival records a job's submission instant and opens its
// arrival→placement flow arrow (id = request index).
func (s *sim) traceArrival(idx int) {
	if s.tr == nil {
		return
	}
	r := &s.reqs[idx]
	name := s.jobName(r.ID)
	s.tr.Instant(name, "arrival", tracePidWorkload, 0, float64(s.now), traceArrivalArgs{
		Class: r.Class.String(),
		Job:   r.ID,
		VMs:   r.VMs,
	})
	s.tr.FlowStart(name, "placement", idx+1, tracePidWorkload, 0, float64(s.now))
}

// tracePlaced closes the job's flow arrow on the first hosting server's
// track at placement time.
func (s *sim) tracePlaced(idx, server int) {
	if s.tr == nil {
		return
	}
	r := &s.reqs[idx]
	s.tr.FlowFinish(s.jobName(r.ID), "placement", idx+1, tracePidServers, server, float64(s.now))
}

// traceQueueDepth samples the queue-depth counter track.
func (s *sim) traceQueueDepth() {
	if s.tr == nil {
		return
	}
	s.tr.Counter("queue", tracePidWorkload, 0, float64(s.now), "depth", float64(s.qlen()))
}

// traceVMRetire records one VM's execution slice on its server's track
// (placement to completion, completion == now).
func (s *sim) traceVMRetire(sv *simServer, vm *simVM, violated bool) {
	if s.tr == nil {
		return
	}
	s.tr.Span(s.vmName(vm, ""), "vm",
		tracePidServers, sv.id, float64(vm.placed), float64(s.now), traceRetireArgs{
			Class:    vm.class.String(),
			Job:      vm.jobID,
			Submit:   float64(vm.submit),
			Violated: violated,
			Wait:     float64(vm.placed - vm.submit),
		})
}

// traceHosting records a server's closed occupancy span (it hosted at
// least one VM from 'from' until now).
func (s *sim) traceHosting(sv *simServer, from units.Seconds) {
	if s.tr == nil {
		return
	}
	s.tr.Span("hosting", "server", tracePidServers, sv.id, float64(from), float64(s.now), nil)
}

// traceVMKill records a killed VM's truncated execution slice on its
// server's track (placement to the crash instant).
func (s *sim) traceVMKill(sv *simServer, vm *simVM) {
	if s.tr == nil {
		return
	}
	s.tr.Span(s.vmName(vm, " killed"), "vm",
		tracePidServers, sv.id, float64(vm.placed), float64(s.now), traceKillArgs{
			Class:  vm.class.String(),
			Job:    vm.jobID,
			Killed: true,
		})
}

// traceDown records a server's outage span (crash to recovery, or to
// the end of the run for servers still down).
func (s *sim) traceDown(sv *simServer, from units.Seconds) {
	if s.tr == nil {
		return
	}
	s.tr.Span("down", "fault", tracePidServers, sv.id, float64(from), float64(s.now), nil)
}
