package cloudsim

// Sharded parallel execution: the fleet is partitioned into contiguous
// per-shard server groups, each owning a private simulator — its own
// event list, placement view/capacity index, admission queue and
// accounting state — and the shards advance together through bounded
// simulated-time windows on a pool of persistent workers.
//
// The synchronization protocol is conservative (no rollback, no
// speculation):
//
//   - At each barrier the coordinator computes the earliest pending
//     instant T across every source — each shard's event list, each
//     shard's not-yet-admitted fault schedule, and the not-yet-routed
//     arrival stream — and opens the window [T, T+W).
//   - Arrivals submitting inside the window are routed, in global
//     submission order, to the shard with the least outstanding work
//     per server (ties to the lowest shard id), and admitted under a
//     globally-assigned arrival-band sequence number.
//   - Every shard then runs its events below T+W in parallel; no shard
//     reads another's state during a window, and the barrier's channel
//     handoff orders the coordinator's loadLeft reads after the
//     workers' writes.
//
// Determinism is by construction, not by luck: routing depends only on
// barrier-state that is itself deterministic, and within a shard the
// event list is totally ordered by (time, sequence) with the sequence
// bands of cloudsim.go — so a run is bit-for-bit reproducible at any
// shard count, and Shards=1 replays the monolithic Run exactly (the
// routed order assigns the same relative arrival sequences the
// monolithic loop does; the golden equivalence tests pin byte-identical
// Metrics and audit spans).
//
// What sharding relaxes, documented rather than hidden: with S > 1 the
// single global FCFS queue becomes S per-shard FCFS queues (a job
// queues only against work routed to its shard), consolidation plans
// stay intra-shard, and a crash re-queues its victims on the owning
// shard. Aggregate accounting remains exact — energy, violations, VM
// counts, response/wait sums and the downtime/idle carve-outs fold
// across shards without approximation; PeakActiveServers is the one
// upper-bound field (the sum of per-shard peaks, which need not be
// simultaneous).

import (
	"fmt"
	"math"
	"sort"

	"pacevm/internal/faults"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
)

// ShardConfig parameterizes RunSharded.
type ShardConfig struct {
	// Shards is the number of fleet partitions (1..Config.Servers).
	// One shard runs the monolithic algorithm byte-identically.
	Shards int
	// Window is the simulated-time width of each synchronization
	// window. Zero selects an automatic width (the arrival span divided
	// by 256, floored at one second). Wider windows amortize barriers.
	// With one shard the result is identical at any width (routing is
	// trivial); with more, the width sets the routing granularity and is
	// part of the run's deterministic parameterization, like the shard
	// count itself.
	Window units.Seconds
	// Steal opts into admission handoff at window barriers: a queued
	// head job its owning shard provably cannot host (by the capacity
	// summary) is re-admitted on the least-loaded shard that provably
	// can, entering that shard's stream at the barrier instant while
	// keeping its original submit time for wait/deadline accounting.
	// Off by default — stealing trades strict per-shard FCFS for
	// utilization. Requeued fault work (synthetic shard-local requests)
	// is never stolen, and the handoff remains deterministic: it runs in
	// shard-id order on barrier state only. The strategy must implement
	// strategy.CapacityHinter; RunSharded rejects Steal otherwise.
	Steal bool
}

// defaultShardWindows is the auto-window divisor: the arrival span is
// cut into this many windows.
const defaultShardWindows = 256

// shardState is one partition's simulator plus its merge bookkeeping.
type shardState struct {
	sim     *sim
	base    int // first global server id owned by this shard
	servers int
	res     Result
	// Private telemetry substituted for the user's handles when S > 1,
	// folded into them after the run (nil when the user passed none).
	reg     *obs.Registry
	audit   *VMAudit
	sampler *FleetSampler
	tr      *obs.Tracer
	rec     *DecisionRecorder
	wd      *obs.Watchdog
}

// canFit is the shard's capacity-summary answer for n VM slots right
// now: whether they fit, and whether that answer is exact. Only an
// exact answer counts: a proven fit promotes a shard in capacity-aware
// routing or lets it accept a stolen job, and a proven misfit of the
// queue head is what lets a barrier handoff break the shard's FCFS
// order. Without a hinting strategy nothing is proven (false, false),
// and the callers fall back to the load heuristic or leave the queue
// alone. Pure — safe to call from the coordinator at a barrier.
func (st *shardState) canFit(n int) (fits, exact bool) {
	s := st.sim
	if s.hinter == nil {
		return false, false
	}
	return s.hinter.CanFit(s.fleet, n)
}

// RunSharded simulates the request stream across sc.Shards fleet
// partitions advancing in parallel. With sc.Shards == 1 the caller's
// telemetry handles are passed straight through and the run — Metrics,
// obs counters, audit spans, sampler series, trace events,
// decision log — is identical to Run's. With more shards the run is
// deterministic for fixed inputs and shard count, and per-shard
// telemetry is merged into the caller's handles at the end: each shard
// records into private handles, and the folds remap server ids, VM
// uids and synthetic request indices into the global space. A tracer
// receives one merged timeline (per-shard server and queue tracks plus
// a coordinator process carrying window spans and steal instants); a
// recorder receives the time-ordered cross-shard decision log with
// the coordinator's route/steal decisions interleaved; a watchdog
// receives every shard's violations stamped with their shard.
func RunSharded(cfg Config, reqs []trace.Request, sc ShardConfig) (Result, error) {
	cfg, err := validateConfig(cfg, reqs)
	if err != nil {
		return Result{}, err
	}
	S := sc.Shards
	if S < 1 {
		return Result{}, fmt.Errorf("cloudsim: need at least one shard, got %d", S)
	}
	if S > cfg.Servers {
		return Result{}, fmt.Errorf("cloudsim: %d shards over %d servers (at most one shard per server)", S, cfg.Servers)
	}
	if sc.Window < 0 {
		return Result{}, fmt.Errorf("cloudsim: negative shard window %v", sc.Window)
	}
	// Only a capacity hint can prove the misfit and the fit a handoff
	// needs; without one, stealing would silently never happen.
	if _, ok := cfg.Strategy.(strategy.CapacityHinter); sc.Steal && !ok {
		return Result{}, fmt.Errorf("cloudsim: strategy %s cannot steal: it does not implement strategy.CapacityHinter", cfg.Strategy.Name())
	}
	for i := range reqs {
		if err := reqs[i].Validate(); err != nil {
			return Result{}, err
		}
	}

	// Global routing order: arrivals sorted by submission, stable so
	// simultaneous submissions keep input order — exactly the relative
	// sequence the monolithic loop's index-ordered admission produces.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return reqs[order[a]].Submit < reqs[order[b]].Submit })
	first := reqs[order[0]].Submit
	window := sc.Window
	if window == 0 {
		window = (reqs[order[len(order)-1]].Submit - first) / defaultShardWindows
		if window < 1 {
			window = 1
		}
	}

	// Contiguous partition: shard k owns servers [base[k], base[k+1]).
	base := strategy.SplitFleet(cfg.Servers, S)
	perFaults := make([]faults.Schedule, S)
	for _, e := range cfg.Faults {
		k := base.Shard(e.Server)
		e.Server -= base[k]
		perFaults[k] = append(perFaults[k], e)
	}

	shards := make([]*shardState, S)
	for k := 0; k < S; k++ {
		st := &shardState{base: base[k], servers: base[k+1] - base[k]}
		scfg := cfg
		scfg.Servers = st.servers
		scfg.Faults = perFaults[k]
		if S > 1 {
			// Substitute private accumulators; the user's handles receive
			// the deterministic shard-order fold after the run.
			if cfg.Obs != nil {
				st.reg = obs.NewRegistry()
				scfg.Obs = st.reg
			}
			if cfg.Audit != nil {
				st.audit = NewVMAudit()
				scfg.Audit = st.audit
			}
			if cfg.Sampler != nil {
				st.sampler = NewFleetSampler(cfg.Sampler.capacity)
				scfg.Sampler = st.sampler
			}
			if cfg.Tracer != nil {
				st.tr = obs.NewTracer()
				scfg.Tracer = st.tr
			}
			if cfg.Recorder != nil {
				st.rec = NewDecisionRecorder()
				scfg.Recorder = st.rec
			}
			if cfg.Watchdog != nil {
				st.wd = obs.NewWatchdog(cfg.Watchdog.Every())
				scfg.Watchdog = st.wd
			}
		}
		if st.sim, err = newSim(scfg, reqs); err != nil {
			return Result{}, err
		}
		// Same formula as Run: the heap holds at most one completion per
		// server plus the fault events; arrivals live on the cursor. (The
		// match matters at S == 1, where the obs registry — including the
		// slab-growth counters — must stay byte-identical to Run's.)
		st.sim.events.Reserve(st.servers + 2*len(scfg.Faults))
		st.sim.arrQ = make([]pendingArrival, 0, len(reqs)/S+1)
		shards[k] = st
	}

	// Persistent workers, one per shard: each blocks for a window limit,
	// admits its faults and runs its events below it, and reports on its
	// done channel. The channel pair is the barrier — receiving a
	// shard's done happens-after everything its window wrote, so the
	// coordinator's peeks and loadLeft reads below are race-free.
	starts := make([]chan units.Seconds, S)
	dones := make([]chan error, S)
	for k := 0; k < S; k++ {
		starts[k] = make(chan units.Seconds)
		dones[k] = make(chan error)
		go func(s *sim, start <-chan units.Seconds, done chan<- error) {
			for limit := range start {
				s.scheduleFaultsUntil(limit)
				done <- s.runUntil(limit)
			}
		}(shards[k].sim, starts[k], dones[k])
	}
	stop := func() {
		for _, c := range starts {
			close(c)
		}
	}

	inf := units.Seconds(math.Inf(1))
	nextReq := 0
	var arrSeq uint64
	// pend counts VMs routed (or stolen) to each shard since its last
	// window ran: they are admitted but not yet placed, so the capacity
	// summary cannot see them and routing must account them on top.
	pend := make([]int, S)
	// Coordinator-side observability, only above one shard so the S == 1
	// pass-through stays byte-identical to Run: a private recorder for
	// route/steal decisions and a private tracer for window spans and
	// steal instants, both folded into the user's handles after the run,
	// plus the routing counter (registered only alongside a recorder so
	// recorder-off registry snapshots stay unchanged).
	var coordRec *DecisionRecorder
	var coordTr *obs.Tracer
	var routes *obs.Counter
	if S > 1 {
		if cfg.Recorder != nil {
			coordRec = NewDecisionRecorder()
			routes = cfg.Obs.Counter("sim_decision_routes_total")
		}
		if cfg.Tracer != nil {
			coordTr = obs.NewTracer()
		}
	}
	windowN := 0
	for {
		// The conservative bound: nothing anywhere can happen before T.
		T := inf
		for _, st := range shards {
			// nextPendingInstant folds in routed-but-not-yet-run arrivals
			// sitting on the shard's arrival cursor, not just heap events.
			if at, ok := st.sim.nextPendingInstant(); ok && at < T {
				T = at
			}
			if fn := st.sim.faultNext; fn < len(st.sim.faultSch) && st.sim.faultSch[fn].Down < T {
				T = st.sim.faultSch[fn].Down
			}
		}
		if nextReq < len(order) && reqs[order[nextReq]].Submit < T {
			T = reqs[order[nextReq]].Submit
		}
		if math.IsInf(float64(T), 1) {
			break
		}
		limit := T + window
		windowN++
		routed := 0
		// Route this window's arrivals in global submission order, under
		// globally-sequenced arrival seqs. The router is capacity-aware:
		// each job goes to the least-loaded shard among those whose
		// capacity summary proves it fits right now (with this window's
		// already-routed VMs counted on top), ties to the lowest shard
		// id; when no shard can prove a fit the pure least-outstanding-
		// work-per-server heuristic decides, as before. All inputs are
		// barrier state, so routing stays deterministic.
		for nextReq < len(order) && reqs[order[nextReq]].Submit < limit {
			n := reqs[order[nextReq]].VMs
			best, bestLoad := -1, math.Inf(1)
			for k, st := range shards {
				if fits, exact := st.canFit(n + pend[k]); !fits || !exact {
					continue
				}
				if load := st.sim.loadLeft / float64(st.servers); load < bestLoad {
					best, bestLoad = k, load
				}
			}
			if best < 0 {
				for k, st := range shards {
					if load := st.sim.loadLeft / float64(st.servers); load < bestLoad {
						best, bestLoad = k, load
					}
				}
			}
			pend[best] += n
			if coordRec != nil {
				r := &reqs[order[nextReq]]
				coordRec.recordRoute(float64(r.Submit), order[nextReq], r.ID, n, best, windowN)
				routes.Inc()
			}
			shards[best].sim.admit(order[nextReq], arrSeq, reqs[order[nextReq]].Submit)
			arrSeq++
			nextReq++
			routed++
		}
		if coordTr != nil {
			coordTr.Span("window", "coord", tracePidCoord, 0,
				float64(T), float64(limit), traceWindowArgs{Routed: routed, Window: windowN})
		}
		for k := range shards {
			starts[k] <- limit
		}
		var runErr error
		for k := range shards {
			if err := <-dones[k]; err != nil && runErr == nil {
				runErr = fmt.Errorf("cloudsim: shard %d: %w", k, err)
			}
		}
		if runErr != nil {
			stop()
			return Result{}, runErr
		}
		for k := range pend {
			pend[k] = 0
		}
		if sc.Steal && S > 1 {
			arrSeq = stealHandoff(shards, len(reqs), arrSeq, limit, pend, coordRec, coordTr, windowN)
		}
	}
	stop()

	// Global workload span: every shard bills idle power and clamps
	// downtime over the same [first, last] the monolithic run would use.
	last := first
	for _, st := range shards {
		if st.sim.lastFinish > last {
			last = st.sim.lastFinish
		}
	}
	for k, st := range shards {
		res, err := st.sim.finalize(first, last)
		if err != nil {
			return Result{}, fmt.Errorf("cloudsim: shard %d: %w", k, err)
		}
		st.res = res
	}

	var m Metrics
	var respSum, waitSum float64
	m.Makespan = last - first
	for _, st := range shards {
		r := &st.res.Metrics
		m.Energy += r.Energy
		m.Violations += r.Violations
		m.TotalVMs += r.TotalVMs
		m.TotalJobs += r.TotalJobs
		m.ActiveServerSeconds += r.ActiveServerSeconds
		m.Migrations += r.Migrations
		m.ServersDrained += r.ServersDrained
		m.FaultsInjected += r.FaultsInjected
		m.VMsKilled += r.VMsKilled
		m.Requeues += r.Requeues
		m.WorkLost += r.WorkLost
		m.DownServerSeconds += r.DownServerSeconds
		// Upper bound: per-shard peaks need not be simultaneous.
		m.PeakActiveServers += r.PeakActiveServers
		respSum += st.sim.responseSum
		waitSum += st.sim.waitSum
	}
	if m.TotalVMs > 0 {
		m.AvgResponse = units.Seconds(respSum / float64(m.TotalVMs))
		m.AvgWait = units.Seconds(waitSum / float64(m.TotalVMs))
	}
	// NominalWork sums in input order, not admission (routed) order:
	// shards admit the same requests but in window/routing order, and a
	// float sum must keep the monolithic run's addition order to stay
	// bit-identical to it.
	m.NominalWork = 0
	for i := range reqs {
		m.NominalWork += reqs[i].NominalTime * units.Seconds(reqs[i].VMs)
	}

	if S > 1 {
		if cfg.Obs != nil {
			for _, st := range shards {
				cfg.Obs.Merge(st.reg)
			}
		}
		// Shared remap tables for every cross-shard fold: global server
		// base, running VM-uid base, and the base of each shard's
		// synthetic (fault-requeued) request range past the original
		// stream.
		bases := make([]int, S)
		uidBases := make([]int, S)
		reqBase := make([]int, S)
		uid, synth := 0, 0
		for k, st := range shards {
			bases[k], uidBases[k], reqBase[k] = st.base, uid, synth
			uid += st.sim.uidSeq
			synth += len(st.sim.reqs) - len(reqs)
		}
		if cfg.Audit != nil {
			audits := make([]*VMAudit, S)
			for k, st := range shards {
				audits[k] = st.audit
			}
			cfg.Audit.absorbShards(audits, bases, uidBases)
		}
		if cfg.Sampler != nil {
			samplers := make([]*FleetSampler, S)
			for k, st := range shards {
				samplers[k] = st.sampler
			}
			cfg.Sampler.absorbShards(samplers, bases, cfg.Servers)
		}
		if cfg.Recorder != nil {
			parts := make([]*DecisionRecorder, S)
			for k, st := range shards {
				parts[k] = st.rec
			}
			cfg.Recorder.absorbShards(coordRec, parts, bases, uidBases, reqBase, len(reqs))
		}
		if cfg.Watchdog != nil {
			cfg.Watchdog.Reset()
			for k, st := range shards {
				cfg.Watchdog.Absorb(st.wd, k)
			}
		}
		if cfg.Tracer != nil {
			trs := make([]*obs.Tracer, S)
			for k, st := range shards {
				trs[k] = st.tr
			}
			mergeShardTraces(cfg.Tracer, coordTr, trs, bases, cfg.Servers, len(reqs), reqBase)
		}
	}
	return Result{Metrics: m}, nil
}

// stealHandoff is the barrier admission handoff behind ShardConfig.
// Steal: walking shards in id order, each donor's queue head is moved —
// while it is an original (never a synthetic requeued) request the
// donor's capacity summary proves unplaceable — to the least-loaded
// other shard whose summary proves it fits, counting VMs already stolen
// this barrier against the receiver. The job's admission accounting
// (TotalJobs, TotalVMs, NominalWork, loadLeft) moves with it and it
// re-enters the receiver's arrival cursor at the barrier instant, so no
// shard's clock rewinds and the receiver's next window places it
// through normal admission. Stops at the first head that might fit
// locally, keeping the donor's FCFS order otherwise intact. Returns the
// advanced global arrival sequence.
func stealHandoff(shards []*shardState, nOrig int, arrSeq uint64, at units.Seconds, pend []int, coordRec *DecisionRecorder, coordTr *obs.Tracer, windowN int) uint64 {
	for k, donor := range shards {
		ds := donor.sim
		for ds.qlen() > 0 {
			idx := ds.qat(0)
			if idx >= nOrig {
				break // synthetic fault requeue: shard-local by contract
			}
			n := ds.reqs[idx].VMs
			if fits, exact := donor.canFit(n); fits || !exact {
				break // might fit here — leave FCFS alone
			}
			best, bestLoad := -1, math.Inf(1)
			for j, st := range shards {
				if j == k {
					continue
				}
				if fits, exact := st.canFit(n + pend[j]); !fits || !exact {
					continue
				}
				if load := st.sim.loadLeft / float64(st.servers); load < bestLoad {
					best, bestLoad = j, load
				}
			}
			if best < 0 {
				break // nowhere provably better
			}
			ds.unadmit(idx)
			ds.qpophead()
			ds.stats.admissionSteals.Inc()
			if coordRec != nil {
				coordRec.recordSteal(float64(at), idx, ds.reqs[idx].ID, n, k, best, windowN)
			}
			if coordTr != nil {
				coordTr.Instant("steal", "coord", tracePidCoord, 1,
					float64(at), traceStealArgs{From: k, Job: ds.reqs[idx].ID, To: best})
			}
			shards[best].sim.admit(idx, arrSeq, at)
			arrSeq++
			pend[best] += n
		}
	}
	return arrSeq
}

// absorbShards folds per-shard audits into the user's collector:
// server ids and VM uids are remapped into the global space (shard k's
// uids are offset by the shards before it, so uids stay dense and
// unique, though numbered differently than a monolithic run would) and
// spans are ordered by end time, ties by shard — deterministic for a
// deterministic run. The span/metric reconciliation invariants survive
// the fold, since every count and sum is shard-additive.
func (a *VMAudit) absorbShards(parts []*VMAudit, serverBase, uidBase []int) {
	a.reset()
	for k, p := range parts {
		for _, sp := range p.spans {
			sp.Server += serverBase[k]
			sp.VMID += uidBase[k]
			a.spans = append(a.spans, sp)
		}
	}
	sort.SliceStable(a.spans, func(i, j int) bool { return a.spans[i].End < a.spans[j].End })
}

// absorbShards folds per-shard fleet samplers into the user's sampler:
// the per-shard series are k-way merged by (time, shard), each merged
// row re-aggregating the fleet totals — watts, active/down servers,
// queue depth, running VMs, cumulative energy — as the sum of every
// shard's most recent contribution, with the triggering server's id
// remapped to the global space. QueueDepth thus sums per-shard queues
// (the sharded engine has no single global queue). The merged series
// flows through the same bounded ring, so capacity and downsampling
// behave as in a monolithic run; BusyEnergy/IdleEnergy fold exactly
// from the per-shard integrals, so their sum still reconciles with
// Metrics.Energy.
func (fs *FleetSampler) absorbShards(parts []*FleetSampler, serverBase []int, servers int) {
	fs.reset(servers)
	series := make([][]FleetSample, len(parts))
	cursor := make([]int, len(parts))
	latest := make([]FleetSample, len(parts))
	for k, p := range parts {
		series[k] = p.Samples()
		if s := p.Stride(); s > fs.stride {
			fs.stride = s
		}
	}
	for {
		best := -1
		for k := range series {
			if cursor[k] >= len(series[k]) {
				continue
			}
			if best < 0 || series[k][cursor[k]].At < series[best][cursor[best]].At {
				best = k
			}
		}
		if best < 0 {
			break
		}
		s := series[best][cursor[best]]
		cursor[best]++
		latest[best] = s
		g := FleetSample{At: s.At, Server: s.Server + serverBase[best], ServerWatts: s.ServerWatts, ServerVMs: s.ServerVMs}
		for _, l := range latest {
			g.FleetWatts += l.FleetWatts
			g.ActiveServers += l.ActiveServers
			g.QueueDepth += l.QueueDepth
			g.DownServers += l.DownServers
			g.RunningVMs += l.RunningVMs
			g.CumEnergy += l.CumEnergy
		}
		fs.push(g)
	}
	for k, p := range parts {
		fs.cumEnergy += p.BusyEnergy()
		fs.idleEnergy += p.IdleEnergy()
		fs.fleetWatts += latest[k].FleetWatts
		fs.runningVMs += latest[k].RunningVMs
	}
}
