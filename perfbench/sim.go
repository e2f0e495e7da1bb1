package main

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
)

// runtimeSigma is the lognormal spread of generated job runtimes. The
// generator's default (0.9) lets a single job from the far tail set the
// makespan; 0.5 keeps the EGEE arrival and burst structure and the same
// median runtime, so makespan follows the workload rather than one job.
const runtimeSigma = 0.5

// simSpec is one simulator configuration the benchmark runs.
type simSpec struct {
	servers int
	// vms sizes an EGEE-shaped trace through trace.Generate/Prepare (the
	// evaluation's fidelity path); requests, when set instead, takes
	// that many requests from the O(1) trace.Stream at gap seconds.
	vms      int
	requests int
	gap      float64
	// pa selects PA-0.5; otherwise FF-3.
	pa bool
}

var simSpecs = map[string]simSpec{
	// 10× the paper's SMALLER cloud under 100k VMs: the fleet has
	// headroom, so partition search and model pricing dominate.
	"pa": {servers: 660, vms: 100_000, pa: true},
	// First-fit on a large fleet: no search, so the event loop, eventq
	// and FleetIndex do the work.
	"ff": {servers: 10_000, requests: 1_000_000, gap: 0.15},
	// The paper's SMALLER cloud and trace size: the small simulator run
	// of the serve-durable workload.
	"pa-small": {servers: 66, vms: 10_000, pa: true},
}

func (sp simSpec) trace(seed uint64) ([]trace.Request, error) {
	if sp.requests > 0 {
		cfg := trace.DefaultStreamConfig(seed)
		cfg.MeanInterarrival = units.Seconds(sp.gap)
		cfg.RuntimeSigma = runtimeSigma
		s, err := trace.NewStream(cfg)
		if err != nil {
			return nil, err
		}
		return s.Take(sp.requests), nil
	}
	gcfg := trace.DefaultGenConfig(seed)
	gcfg.Jobs = sp.vms/2 + 200
	gcfg.RuntimeSigma = runtimeSigma
	tr, err := trace.Generate(gcfg)
	if err != nil {
		return nil, err
	}
	pcfg := trace.DefaultPrepConfig(seed)
	pcfg.TargetVMs = sp.vms
	reqs, _, err := trace.Prepare(tr, pcfg)
	return reqs, err
}

func (sp simSpec) strategy(db *model.DB, reg *obs.Registry) (strategy.Strategy, error) {
	if sp.pa {
		return strategy.NewProactiveConfig(core.Config{DB: db, Obs: reg}, core.Goal{Alpha: 0.5})
	}
	return strategy.NewFirstFit(3)
}

// simResult is what one sim part reports to the orchestrator.
type simResult struct {
	SetupS    float64 `json:"setup_s"`
	CampaignS float64 `json:"campaign_s"`
	GenS      float64 `json:"gen_s"`
	Requests  int     `json:"requests"`
	VMs       int     `json:"vms"`
	Reps      int     `json:"reps"`
	ReqPerS   float64 `json:"req_per_s"`
	// ReqPerCPUS counts CPU time (user+system, all threads) instead of
	// wall time, so time the host takes the vCPU away does not count,
	// scaled to the reference host like SetupS (probe.go).
	ReqPerCPUS float64 `json:"req_per_cpu_s"`
	EnergyMJ   float64 `json:"energy_mj"`
	SLAMetPct  float64 `json:"sla_met_pct"`
	MakespanS  float64 `json:"makespan_s"`
	// ProbeMS is the median CPU time of the part's probe bursts.
	ProbeMS float64 `json:"probe_ms"`
	// Layers holds the per-layer metrics of a traced run.
	Layers   map[string]float64 `json:"layers,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// setupReps is how often set-up is repeated to report its median.
const setupReps = 5

// probeEvery is how much measured simulation a probe burst follows.
const probeEvery = 500 * time.Millisecond

// runSim executes one sim part: set-up setupReps times, then untraced
// simulations of the same trace until budget has elapsed (at least
// minReps), then, with traced, one traced simulation checked against
// the untraced ones. Probe bursts run before each set-up and after each
// simulation, and scale set-up time and simulation CPU time (probe.go).
func runSim(name string, seed uint64, budget time.Duration, minReps int, traced bool) (simResult, error) {
	sp, ok := simSpecs[name]
	if !ok {
		return simResult{}, fmt.Errorf("unknown sim %q", name)
	}
	var res simResult
	var db *model.DB
	var reqs []trace.Request
	var setup, camp, gen []float64
	var p probes
	for i := 0; i < setupReps; i++ {
		p.run(1)
		t0 := time.Now()
		cfg := campaign.DefaultConfig()
		cfg.FullGridTotal = 16
		d, _, err := campaign.Run(cfg)
		if err != nil {
			return res, fmt.Errorf("campaign: %w", err)
		}
		t1 := time.Now()
		r, err := sp.trace(seed)
		if err != nil {
			return res, fmt.Errorf("trace: %w", err)
		}
		t2 := time.Now()
		setup = append(setup, t2.Sub(t0).Seconds())
		camp = append(camp, t1.Sub(t0).Seconds())
		gen = append(gen, t2.Sub(t1).Seconds())
		db, reqs = d, r
		// Collect each repeat's garbage now, so set-up does not pile up
		// heap that inflates the process's peak resident set.
		runtime.GC()
	}
	res.CampaignS, res.GenS = median(camp), median(gen)
	res.Requests = len(reqs)
	for _, r := range reqs {
		res.VMs += r.VMs
	}

	st, err := sp.strategy(db, nil)
	if err != nil {
		return res, err
	}
	cfg := cloudsim.Config{DB: db, Servers: sp.servers, Strategy: st, IdleServerPower: -1}
	var walls, cpus []float64
	var first cloudsim.Metrics
	var allocs, bytes uint64
	start := time.Now()
	for len(walls) < minReps || time.Since(start) < budget {
		runtime.GC()
		var m0, m1 runtime.MemStats
		if len(walls) == 0 {
			runtime.ReadMemStats(&m0)
		}
		c0, t0 := cpuTime(), time.Now()
		out, err := cloudsim.Run(cfg, reqs)
		wall, cpu := time.Since(t0), cpuTime()-c0
		if err != nil {
			return res, fmt.Errorf("simulate: %w", err)
		}
		if len(walls) == 0 {
			runtime.ReadMemStats(&m1)
			allocs, bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
			first = out.Metrics
			res.Failures = append(res.Failures, checkSimMetrics(first, res)...)
		} else if out.Metrics != first {
			res.Failures = append(res.Failures, fmt.Sprintf("repeat %d of the same trace gave different metrics", len(walls)))
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		p.run(max(1, int(wall/probeEvery)))
	}
	res.Reps = len(walls)
	res.ReqPerS = float64(len(reqs)) / median(walls)
	res.ReqPerCPUS = float64(len(reqs)) / (median(cpus) * p.cpuScale())
	res.SetupS = median(setup) * p.wallScale()
	res.ProbeMS = 1000 * median(p.cpu)
	res.EnergyMJ = float64(first.Energy) / 1e6
	res.SLAMetPct = 100 - first.SLAViolationPct()
	res.MakespanS = float64(first.Makespan)
	if !traced {
		return res, nil
	}

	reg := obs.NewRegistry()
	// About a dozen sweeps a run: each re-derives state over the whole fleet
	// and every pending arrival.
	wd := obs.NewWatchdog(max(8192, len(reqs)/4))
	inner, err := sp.strategy(db, reg)
	if err != nil {
		return res, err
	}
	timedSt, timer := Timed(inner)
	tcfg := cfg
	tcfg.Strategy, tcfg.Obs, tcfg.Watchdog = timedSt, reg, wd
	runtime.GC()
	t0 := time.Now()
	out, err := cloudsim.Run(tcfg, reqs)
	wall := time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("traced simulate: %w", err)
	}
	if out.Metrics != first {
		res.Failures = append(res.Failures, fmt.Sprintf("traced run differs from untraced: %+v vs %+v", out.Metrics, first))
	}
	drifts := 0
	for _, v := range wd.Violations() {
		if roundingDrift(v) {
			drifts++
			continue
		}
		res.Failures = append(res.Failures, "watchdog: "+v.String())
	}
	snap := reg.Snapshot()
	c := func(name string) float64 { return float64(snap.Counters[name]) }
	g := func(name string) float64 { return float64(snap.Gauges[name]) }
	n := float64(len(reqs))
	L := map[string]float64{
		"campaign.build_s":                 res.CampaignS,
		"trace.gen_s":                      res.GenS,
		"cloudsim.self_s":                  (wall - timer.Busy).Seconds(),
		"cloudsim.events_popped":           c("sim_events_popped"),
		"cloudsim.place_attempts":          c("sim_place_attempts"),
		"cloudsim.place_rejected":          c("sim_place_rejected"),
		"cloudsim.place_success_ratio":     ratio(c("sim_place_attempts")-c("sim_place_rejected"), c("sim_place_attempts")),
		"cloudsim.fleet_scans":             c("sim_fleet_scans_total"),
		"cloudsim.fit_skips":               c("sim_fit_skips_total"),
		"cloudsim.pricing_cache_hit_ratio": ratio(c("sim_pricing_cache_hits"), c("sim_pricing_cache_hits")+c("sim_pricing_cache_misses")),
		"cloudsim.allocs_per_req":          float64(allocs) / n,
		"cloudsim.watchdog_rounding_drift": float64(drifts),
		"cloudsim.bytes_per_req":           float64(bytes) / n,
		"eventq.depth_highwater":           g("eventq_depth_highwater"),
		"eventq.slab_grown":                c("eventq_slab_grown"),
		"eventq.cancelled":                 c("eventq_cancelled"),
		"strategy.calls":                   float64(timer.Calls),
		"strategy.busy_s":                  timer.Busy.Seconds(),
		"strategy.ns_per_call":             ratio(float64(timer.Busy), float64(timer.Calls)),
		"core.partitions_enumerated":       c("search_partitions_enumerated"),
		"core.partitions_deduped":          c("search_partitions_deduped"),
		"core.candidates_feasible":         c("search_candidates_feasible"),
		"core.candidates_infeasible":       c("search_candidates_infeasible"),
		"core.pareto_pruned":               c("search_pareto_pruned"),
		"core.feasible_ratio":              ratio(c("search_candidates_feasible"), c("search_partitions_enumerated")),
		"core.budget_exhausted":            c("search_budget_exhausted"),
		"core.degraded_firstfit":           c("search_degraded_firstfit"),
		"model.cache_hits":                 c("model_cache_hits"),
		"model.cache_misses":               c("model_cache_misses"),
		"model.cache_hit_ratio":            ratio(c("model_cache_hits"), c("model_cache_hits")+c("model_cache_misses")),
		"model.cache_size":                 g("model_cache_size"),
		"bench.trace_overhead_pct":         100 * (wall.Seconds() - median(walls)) / median(walls),
	}
	res.Layers = L
	return res, nil
}

// checkSimMetrics sanity-checks one simulation's outputs against its
// input: every VM ran, and energy and makespan are positive.
func checkSimMetrics(m cloudsim.Metrics, res simResult) []string {
	var bad []string
	if m.TotalVMs != res.VMs {
		bad = append(bad, fmt.Sprintf("simulated %d VMs, trace has %d", m.TotalVMs, res.VMs))
	}
	if m.TotalJobs != res.Requests {
		bad = append(bad, fmt.Sprintf("simulated %d jobs, trace has %d", m.TotalJobs, res.Requests))
	}
	if m.Energy <= 0 || m.Makespan <= 0 {
		bad = append(bad, fmt.Sprintf("non-positive energy %v or makespan %v", m.Energy, m.Makespan))
	}
	if m.Violations < 0 || m.Violations > m.TotalVMs {
		bad = append(bad, fmt.Sprintf("%d SLA violations out of %d VMs", m.Violations, m.TotalVMs))
	}
	return bad
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// driftAllowance is the largest work-conservation mismatch, in nominal
// seconds, taken as float rounding rather than lost work. The check's
// tolerance scales with the work outstanding, which falls to zero as a
// run ends, while the incremental total it compares against has summed
// millions of runtimes; on sim-ff-fleet the two differ by about 1e-4 s
// at the end of the run. Generated VMs run for at least one second, so a
// lost or duplicated VM always shows as far more than this.
const driftAllowance = 1e-3

// roundingDrift reports whether v is the work-conservation check
// tripping on float rounding (see driftAllowance).
func roundingDrift(v obs.Violation) bool {
	i := strings.LastIndex(v.Detail, "(diff ")
	if v.Check != "work-conservation" || i < 0 {
		return false
	}
	var diff float64
	if _, err := fmt.Sscanf(v.Detail[i:], "(diff %g)", &diff); err != nil {
		return false
	}
	return diff <= driftAllowance
}
