package cloudsim

// The placement decision flight recorder: a compact append-only log of
// every admit / route / place / reject / steal / requeue / migrate
// decision the simulator takes, with enough context to reconstruct any
// VM's full decision chain after the run (cmd/pacevm-explain). Like the
// tracer, audit and sampler it is observation only — no simulation
// state is read back from it — and a nil *DecisionRecorder is a no-op
// at every hook, so a recorder-off run stays byte- and
// allocation-identical to an uninstrumented one.
//
// Rejects are folded: consecutive rejects of the same request for the
// same reason collapse into one record carrying Count and TEnd, so a
// job blocked across thousands of drain sweeps costs one log record
// per reason transition, not one per attempt. Any other decision about
// the request (or a reject for a different reason) closes the fold.
//
// The log serializes as JSON Lines (WriteJSONL / ReadDecisionLog), one
// decision per line, floats in Go's default shortest form. The sharded
// engine gives each shard a private recorder and merges them — server
// ids, VM uids and synthetic requeue request indices remapped into the
// global space — through absorbShards, the same deterministic fold the
// VM audit uses.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"pacevm/internal/core"
	"pacevm/internal/strategy"
)

// Decision kinds.
const (
	DecisionAdmit   = "admit"   // request reached the admission queue
	DecisionRoute   = "route"   // coordinator routed the request to a shard (sharded runs only)
	DecisionPlace   = "place"   // request's VMs were placed on servers
	DecisionReject  = "reject"  // a placement attempt was rejected or skipped (see Reason)
	DecisionSteal   = "steal"   // coordinator moved a stuck queue head between shards
	DecisionRequeue = "requeue" // a crash-killed VM's remaining work re-entered admission
	DecisionMigrate = "migrate" // the consolidator moved (or failed to move) a VM

	// Service decision kinds (internal/serve): the always-on placement
	// service logs through the same recorder so pacevm-explain replays
	// service logs unchanged. T is wall-clock seconds since service
	// start in those records.
	DecisionDegrade = "degrade" // the overload ladder stepped (From/To are the old/new levels)
	DecisionShed    = "shed"    // admission control dropped a request (see Reason)
	DecisionRelease = "release" // a placement's VMs were released by the client
)

// Reject reasons.
const (
	// RejectFitWatermark: the drain sweep's memo already proved a job of
	// this size (or smaller) cannot fit; the attempt was skipped.
	RejectFitWatermark = "fit-watermark"
	// RejectFitSummary: the capacity summary proved exactly that the
	// fleet cannot hold the job's VM count right now.
	RejectFitSummary = "fit-summary"
	// RejectQoSWait: the strategy proved the job satisfiable on an empty
	// fleet but not placeable within QoS right now — it waits rather
	// than relaxing (strategy.Proactive's wait-vs-relax decision).
	RejectQoSWait = "qos-wait"
	// RejectStrategy: the strategy declined the placement.
	RejectStrategy = "strategy"
	// RejectStrategyInvalid: the strategy returned a malformed
	// assignment (wrong arity, out-of-range or down target).
	RejectStrategyInvalid = "strategy-invalid"
	// RejectAdmissionCap: the assignment would exceed MaxVMsPerServer.
	RejectAdmissionCap = "admission-cap"
	// MigrateTargetDown is the Reason of a migrate record whose move was
	// skipped because the consolidator targeted a crashed server.
	MigrateTargetDown = "target-down"

	// Service shed/reject reasons (internal/serve).
	RejectQueueFull = "queue-full" // the shard's bounded admission queue was full
	RejectRateLimit = "rate-limit" // the client's token bucket was empty
	RejectDeadline  = "deadline"   // the request's deadline passed while queued
	RejectShedding  = "shedding"   // the ladder is at the shed level
	RejectDraining  = "draining"   // the service is in its SIGTERM drain
	RejectCapacity  = "no-capacity"
)

// DecisionSearch is the PROACTIVE search-statistics payload of a place
// or reject decision taken through a strategy.IndexedExplainer: exact
// per-call counts from core.SearchStats.
type DecisionSearch struct {
	Enumerated int  `json:"enumerated"`
	Deduped    int  `json:"deduped"`
	Feasible   int  `json:"feasible"`
	Infeasible int  `json:"infeasible"`
	Pruned     int  `json:"pruned"`
	Exhausted  bool `json:"exhausted,omitempty"`
}

// Decision is one record of the flight log. Kind selects which optional
// fields are meaningful; From and To are always present and -1 when the
// kind carries neither (0 is a valid server and shard id).
type Decision struct {
	// Kind is one of the Decision* constants; T the simulated instant.
	Kind string  `json:"kind"`
	T    float64 `json:"t"`
	// Shard is the partition the decision ran on (0 in monolithic runs,
	// -1 for coordinator decisions: route and steal).
	Shard int `json:"shard"`
	// Req indexes the request stream; synthetic requeue requests get
	// indices past the original stream. -1 on migrate records (a
	// consolidator move concerns a VM, not a request).
	Req int `json:"req"`
	// Job/VMs echo the request (or the moved/killed VM's job).
	Job int `json:"job,omitempty"`
	VMs int `json:"vms,omitempty"`
	// Queue is the admission-queue depth just after an admit.
	Queue int `json:"queue,omitempty"`
	// Reason qualifies rejects (Reject* constants) and skipped migrates.
	Reason string `json:"reason,omitempty"`
	// Count/TEnd describe a folded reject run: Count identical rejects
	// from T through TEnd. Absent (0) means a single occurrence.
	Count int     `json:"count,omitempty"`
	TEnd  float64 `json:"t_end,omitempty"`
	// Candidates is the placement candidate-set size offered to the
	// strategy (the up-server count).
	Candidates int `json:"candidates,omitempty"`
	// Wait is place-time minus submit.
	Wait float64 `json:"wait,omitempty"`
	// Window is the 1-based synchronization-window ordinal of a
	// coordinator decision.
	Window int `json:"window,omitempty"`
	// From/To: migrate = source/destination server; steal =
	// donor/receiver shard; route = -1/receiver shard; requeue = the
	// crashed server/-1. -1 where not meaningful.
	From int `json:"from"`
	To   int `json:"to"`
	// VMID is the dense VM uid a requeue or migrate concerns.
	VMID int `json:"vm_id,omitempty"`
	// Lost is the nominal-seconds of progress a requeue discarded.
	Lost float64 `json:"lost,omitempty"`
	// Relaxed/Degraded/Search carry the Explainer's placement info:
	// QoS-relaxed second pass, budget-exhausted first-fit degradation,
	// and the exact search counters.
	Relaxed  bool `json:"relaxed,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// Servers/VMIDs are the per-VM placement targets and assigned uids.
	Servers []int           `json:"servers,omitempty"`
	VMIDs   []int           `json:"vm_ids,omitempty"`
	Search  *DecisionSearch `json:"search,omitempty"`
}

// DecisionRecorder buffers the flight log for one run. Attach with
// Config.Recorder; reuse across runs is safe (the run resets it). Safe
// for concurrent emitters and readers.
type DecisionRecorder struct {
	mu         sync.Mutex
	recs       []Decision
	lastReject map[int]int // req -> recs index of the open reject fold
}

// NewDecisionRecorder returns an empty recorder.
func NewDecisionRecorder() *DecisionRecorder {
	return &DecisionRecorder{lastReject: map[int]int{}}
}

// reset clears the recorder for a new run.
func (r *DecisionRecorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs = r.recs[:0]
	clear(r.lastReject)
	r.mu.Unlock()
}

// record appends one decision, folding consecutive same-reason rejects
// of the same request and closing the fold on any other decision about
// it.
func (r *DecisionRecorder) record(d Decision) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastReject == nil {
		r.lastReject = map[int]int{}
	}
	if d.Kind == DecisionReject {
		if i, ok := r.lastReject[d.Req]; ok {
			if prev := &r.recs[i]; prev.Reason == d.Reason {
				if prev.Count == 0 {
					prev.Count = 1
				}
				prev.Count++
				prev.TEnd = d.T
				return
			}
		}
		r.lastReject[d.Req] = len(r.recs)
		r.recs = append(r.recs, d)
		return
	}
	delete(r.lastReject, d.Req)
	r.recs = append(r.recs, d)
}

// Record appends one decision through the same reject-folding path the
// simulator's hooks use. It is the entry point for emitters outside the
// simulator — the placement service logs its admission, ladder, shed
// and release decisions here — and is nil-safe like every other method.
func (r *DecisionRecorder) Record(d Decision) { r.record(d) }

// Len returns the number of recorded decisions (0 on a nil recorder).
func (r *DecisionRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// Decisions returns a copy of the log (nil on a nil recorder).
func (r *DecisionRecorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.recs...)
}

// WriteJSONL serializes the log as JSON Lines, one decision per line.
// A nil recorder writes nothing.
func (r *DecisionRecorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.recs {
		if err := enc.Encode(&r.recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDecisionLog parses a WriteJSONL document, reporting malformed
// records with their 1-based line number.
func ReadDecisionLog(r io.Reader) ([]Decision, error) {
	var out []Decision
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var d Decision
		if err := json.Unmarshal(b, &d); err != nil {
			return nil, fmt.Errorf("cloudsim: decision log line %d: %w", line, err)
		}
		if d.Kind == "" {
			return nil, fmt.Errorf("cloudsim: decision log line %d: missing kind", line)
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cloudsim: decision log line %d: %w", line+1, err)
	}
	return out, nil
}

// ---- sim-side hooks (all called only when s.rec != nil) ----

// candidateCount is the placement candidate-set size: the up-server
// count the strategy is offered.
func (s *sim) candidateCount() int {
	return s.fleet.NumUp()
}

// recordAdmit logs a request reaching the admission queue.
func (s *sim) recordAdmit(idx int) {
	r := &s.reqs[idx]
	s.stats.decisionAdmits.Inc()
	s.rec.record(Decision{
		Kind: DecisionAdmit, T: float64(s.now), Req: idx,
		Job: r.ID, VMs: r.VMs, Queue: s.qlen(), From: -1, To: -1,
	})
}

// recordReject logs a failed or skipped placement attempt.
func (s *sim) recordReject(idx int, reason string) {
	r := &s.reqs[idx]
	s.stats.decisionRejects.Inc()
	s.rec.record(Decision{
		Kind: DecisionReject, T: float64(s.now), Req: idx,
		Job: r.ID, VMs: r.VMs, Reason: reason,
		Candidates: s.candidateCount(), From: -1, To: -1,
	})
}

// recordPlace logs a committed placement: the per-VM server targets,
// the assigned uids, and — when the strategy is an IndexedExplainer — the
// search statistics behind the decision.
func (s *sim) recordPlace(idx int, assign, uids []int, info *strategy.PlaceInfo) {
	r := &s.reqs[idx]
	s.stats.decisionPlaces.Inc()
	d := Decision{
		Kind: DecisionPlace, T: float64(s.now), Req: idx,
		Job: r.ID, VMs: r.VMs,
		Wait:       float64(s.now - r.Submit),
		Candidates: s.candidateCount(),
		From:       -1, To: -1,
		Servers: append([]int(nil), assign...),
		VMIDs:   append([]int(nil), uids...),
	}
	if info != nil {
		d.Relaxed = info.Relaxed
		d.Degraded = info.Stats.Degraded
		d.Search = NewDecisionSearch(info.Stats)
	}
	s.rec.record(d)
}

// recordRequeue logs a crash casualty's remaining work re-entering
// admission as synthetic request ridx.
func (s *sim) recordRequeue(vmID, jobID, server, ridx int, lost float64) {
	s.rec.record(Decision{
		Kind: DecisionRequeue, T: float64(s.now), Req: ridx,
		Job: jobID, VMs: 1, VMID: vmID, Lost: lost,
		From: server, To: -1,
	})
}

// recordMigrate logs one consolidator move (reason == "" when applied,
// MigrateTargetDown when skipped).
func (s *sim) recordMigrate(vmID, jobID, from, to int, reason string) {
	s.rec.record(Decision{
		Kind: DecisionMigrate, T: float64(s.now), Req: -1,
		Job: jobID, VMID: vmID, From: from, To: to, Reason: reason,
	})
}

// NewDecisionSearch copies exact search stats into the log payload.
func NewDecisionSearch(st core.SearchStats) *DecisionSearch {
	return &DecisionSearch{
		Enumerated: st.Enumerated,
		Deduped:    st.Deduped,
		Feasible:   st.Feasible,
		Infeasible: st.Infeasible,
		Pruned:     st.Pruned,
		Exhausted:  st.Exhausted,
	}
}

// ---- coordinator-side hooks (sharded runs, S > 1) ----

// recordRoute logs the coordinator routing one arrival to a shard in
// synchronization window w (1-based).
func (r *DecisionRecorder) recordRoute(t float64, req, job, vms, shard, w int) {
	r.record(Decision{
		Kind: DecisionRoute, T: t, Shard: -1, Req: req,
		Job: job, VMs: vms, Window: w, From: -1, To: shard,
	})
}

// recordSteal logs a barrier admission handoff from one shard to
// another.
func (r *DecisionRecorder) recordSteal(t float64, req, job, vms, from, to, w int) {
	r.record(Decision{
		Kind: DecisionSteal, T: t, Shard: -1, Req: req,
		Job: job, VMs: vms, Window: w, From: from, To: to,
	})
}

// absorbShards folds the coordinator's and every shard's private
// decision logs into the user's recorder, remapping into the global
// space: server ids by the shard's base, VM uids by the running uid
// base (the audit's scheme, so decision-log uids match audit uids),
// and synthetic requeue request indices past the original stream into
// disjoint per-shard ranges (reqBase[k] = Σ synthetic requests of the
// shards before k). Records are ordered by time, ties resolved
// coordinator-first then by shard — deterministic for a deterministic
// run.
func (r *DecisionRecorder) absorbShards(coord *DecisionRecorder, parts []*DecisionRecorder, serverBase, uidBase, reqBase []int, nOrig int) {
	r.reset()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, coord.Decisions()...)
	for k, p := range parts {
		for _, d := range p.Decisions() {
			d.Shard = k
			if d.Req >= nOrig {
				d.Req = nOrig + reqBase[k] + (d.Req - nOrig)
			}
			if d.VMID > 0 {
				d.VMID += uidBase[k]
			}
			for i := range d.VMIDs {
				d.VMIDs[i] += uidBase[k]
			}
			for i := range d.Servers {
				d.Servers[i] += serverBase[k]
			}
			if d.Kind == DecisionMigrate || d.Kind == DecisionRequeue {
				if d.From >= 0 {
					d.From += serverBase[k]
				}
				if d.To >= 0 {
					d.To += serverBase[k]
				}
			}
			r.recs = append(r.recs, d)
		}
	}
	recs := r.recs
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].T < recs[j].T })
}
