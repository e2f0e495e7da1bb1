// Package experiments regenerates every table and figure of the paper's
// evaluation. Each Fig*/Table* method maps to one published artifact (the
// per-experiment index lives in DESIGN.md §3); Evaluation runs the full
// Sect.-IV simulation campaign shared by Figs. 5-7, and Headlines checks
// the paper's headline claims against the measured results.
package experiments

import (
	"fmt"
	"sync"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/faults"
	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/profiler"
	"pacevm/internal/stats"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/vmm"
	"pacevm/internal/workload"
)

// Config parameterizes the whole reproduction.
type Config struct {
	// Seed drives every stochastic element.
	Seed uint64
	// SmallServers sizes the SMALLER (reference) cloud; LargeServers the
	// LARGER, over-dimensioned one ("15% approximately").
	SmallServers, LargeServers int
	// TargetVMs is the trace size (the paper's 10,000 VMs).
	TargetVMs int
	// CampaignMaxBase and FullGridTotal shape the model campaign.
	CampaignMaxBase, FullGridTotal int
	// IdleServerPower is forwarded to the datacenter simulator: 0 uses
	// the paper's 125 W fixed dissipation for every provisioned server,
	// negative powers empty servers off entirely.
	IdleServerPower units.Watts
	// BackfillDepth is forwarded to every simulation: 0 keeps the
	// paper's strict FCFS queue, a positive depth lets jobs behind a
	// blocked head be tried (see cloudsim.Config.BackfillDepth).
	BackfillDepth int
	// MTBF/MTTR switch every simulation into fault-injection mode: each
	// cloud draws a seeded crash/recovery schedule (mean up time MTBF,
	// mean outage MTTR, over the trace's arrival span) shared by every
	// strategy evaluated on that cloud, so a faulty evaluation stays a
	// controlled comparison. Zero MTBF — the default — runs fault-free,
	// which keeps the paper's published numbers byte-identical.
	MTBF, MTTR units.Seconds
	// Checkpoint decides how much progress a killed VM keeps (nil means
	// restart from scratch; see faults.CheckpointPolicy).
	Checkpoint faults.CheckpointPolicy
	// Shards partitions each simulated cloud into this many server groups
	// simulated in parallel (see cloudsim.RunSharded); 0 or 1 keeps the
	// single event loop. A shard count above a cloud's server count is
	// clamped per cloud, so one setting serves both cloud sizes.
	Shards int
}

// Default is the paper-scale configuration. The evaluation powers empty
// servers off (IdleServerPower −1): the paper's premise is that
// "minimizing the number of servers that are in operation … will help
// reduce the energy consumption", which presumes servers not in
// operation stop consuming.
func Default() Config {
	return Config{
		Seed:            42,
		IdleServerPower: -1,
		SmallServers:    66,
		LargeServers:    76, // +15 %
		TargetVMs:       10000,
		CampaignMaxBase: 16,
		FullGridTotal:   16,
	}
}

// Quick is a reduced configuration for tests and smoke runs: a ~1,000-VM
// trace on a proportionally smaller cloud.
func Quick() Config {
	return Config{
		Seed:            42,
		IdleServerPower: -1,
		SmallServers:    7,
		LargeServers:    8,
		TargetVMs:       1000,
		CampaignMaxBase: 16,
		FullGridTotal:   16,
	}
}

func (c Config) validate() error {
	if c.SmallServers < 1 || c.LargeServers < c.SmallServers {
		return fmt.Errorf("experiments: cloud sizes %d/%d invalid", c.SmallServers, c.LargeServers)
	}
	if c.TargetVMs < 1 {
		return fmt.Errorf("experiments: TargetVMs must be positive")
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		return fmt.Errorf("experiments: MTBF %v needs a positive MTTR", c.MTBF)
	}
	if c.MTBF < 0 || c.MTTR < 0 {
		return fmt.Errorf("experiments: negative MTBF/MTTR %v/%v", c.MTBF, c.MTTR)
	}
	if c.Shards < 0 {
		return fmt.Errorf("experiments: negative Shards %d", c.Shards)
	}
	return nil
}

// Context carries the shared state of a reproduction run: the model
// database (built once) and the cached evaluation results.
type Context struct {
	Cfg Config
	DB  *model.DB
	Sum campaign.Summary

	evalOnce sync.Once
	evalRes  []EvalResult
	evalErr  error

	extOnce sync.Once
	extRes  []EvalResult
	extErr  error
}

// NewContext builds the model database by running the benchmarking
// campaign (base + full-grid combined tests).
func NewContext(cfg Config) (*Context, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ccfg := campaign.DefaultConfig()
	ccfg.MaxBase = cfg.CampaignMaxBase
	ccfg.FullGridTotal = cfg.FullGridTotal
	db, sum, err := campaign.Run(ccfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: campaign: %w", err)
	}
	return &Context{Cfg: cfg, DB: db, Sum: sum}, nil
}

// runSim dispatches one simulation through the configured engine: the
// single event loop by default, the sharded parallel engine when
// Cfg.Shards asks for more than one shard. The shard count is clamped
// to the cloud's server count so one setting serves both cloud sizes.
// Keep shards coarse relative to the cloud: a job wider than its
// shard's total capacity starves that shard (the per-shard FCFS
// relaxation) and the run fails with the starvation diagnostic.
func (c *Context) runSim(cfg cloudsim.Config, reqs []trace.Request) (cloudsim.Result, error) {
	shards := c.Cfg.Shards
	if shards > cfg.Servers {
		shards = cfg.Servers
	}
	if shards > 1 {
		return cloudsim.RunSharded(cfg, reqs, cloudsim.ShardConfig{Shards: shards})
	}
	return cloudsim.Run(cfg, reqs)
}

// Fig1Result holds the two profiled workloads of Fig. 1.
type Fig1Result struct {
	// CPUOnly is the CPU-intensive workload (left panel); CPUNet the
	// CPU- cum network-intensive one (right panel).
	CPUOnly, CPUNet profiler.Profile
}

// Fig1 profiles a CPU-intensive workload and a CPU+network-intensive
// workload, producing the subsystem-utilization-over-time series of
// Fig. 1.
func (c *Context) Fig1() (Fig1Result, error) {
	pcfg := profiler.DefaultConfig()
	vcfg := vmm.DefaultConfig()
	left, err := profiler.Run(pcfg, vcfg, workload.HPL())
	if err != nil {
		return Fig1Result{}, fmt.Errorf("experiments: fig1 left: %w", err)
	}
	right, err := profiler.Run(pcfg, vcfg, workload.MPINet())
	if err != nil {
		return Fig1Result{}, fmt.Errorf("experiments: fig1 right: %w", err)
	}
	return Fig1Result{CPUOnly: left, CPUNet: right}, nil
}

// Fig2 runs the FFTW base test: average execution time per VM for 1-16
// co-located FFTW VMs (the paper's optimum is 9, with sharp degradation
// past 11).
func (c *Context) Fig2() (campaign.BaseResult, error) {
	ccfg := campaign.DefaultConfig()
	ccfg.MaxBase = c.Cfg.CampaignMaxBase
	return campaign.RunBaseBenchmark(ccfg, workload.FFTW())
}

// TableIRow is one class's base-test parameters.
type TableIRow struct {
	Class    workload.Class
	Bench    string
	OSP, OSE int
	RefTime  units.Seconds
}

// TableI returns the base-test parameter summary (OSP*/OSE*/T* for the
// CPU, memory and I/O classes).
func (c *Context) TableI() []TableIRow {
	rows := make([]TableIRow, 0, workload.NumClasses)
	for _, class := range workload.Classes {
		b := c.Sum.Base[class]
		rows = append(rows, TableIRow{
			Class: class, Bench: b.Bench,
			OSP: b.OSP, OSE: b.OSE, RefTime: b.RefTime,
		})
	}
	return rows
}

// TableII returns the model database (the paper's Table II describes its
// schema; the records are its content).
func (c *Context) TableII() *model.DB { return c.DB }

// Fig4 reproduces the worked interval-accounting example verbatim.
type Fig4Result struct {
	ExecTimeVM1 units.Seconds
	Energy      units.Joules
}

// Fig4 computes the paper's example: VM1 spends 70 % of its lifetime
// under allocation A (1200 s estimate) and 30 % under B (1800 s);
// the outcome spans three intervals weighted 0.35/0.15/0.5 with energy
// estimates 15/20/12 kJ.
func (c *Context) Fig4() (Fig4Result, error) {
	t, err := cloudsim.WeightedExecTime([]float64{0.7, 0.3}, []units.Seconds{1200, 1800})
	if err != nil {
		return Fig4Result{}, err
	}
	e, err := cloudsim.WeightedEnergy([]float64{0.35, 0.15, 0.5}, []units.Joules{15000, 20000, 12000})
	if err != nil {
		return Fig4Result{}, err
	}
	return Fig4Result{ExecTimeVM1: t, Energy: e}, nil
}

// CloudName identifies the two evaluation clouds.
type CloudName string

// The paper's two cloud sizes.
const (
	Smaller CloudName = "SMALLER"
	Larger  CloudName = "LARGER"
)

// EvalResult is one strategy × cloud outcome.
type EvalResult struct {
	Strategy string
	Cloud    CloudName
	Servers  int
	Metrics  cloudsim.Metrics
}

// StrategyNames lists the evaluated strategies in the paper's order.
var StrategyNames = []string{"FF", "FF-2", "FF-3", "PA-1", "PA-0", "PA-0.5"}

// Evaluation runs the full Sect.-IV experiment: the six strategies on
// both clouds over the same preprocessed trace. Results are computed
// once and cached on the Context (Figs. 5, 6 and 7 are three views of
// this one dataset).
func (c *Context) Evaluation() ([]EvalResult, error) {
	c.evalOnce.Do(func() { c.evalRes, c.evalErr = c.runEvaluation() })
	return c.evalRes, c.evalErr
}

func (c *Context) runEvaluation() ([]EvalResult, error) {
	strategies, err := c.Strategies()
	if err != nil {
		return nil, err
	}
	var cells []evalCell
	for _, st := range strategies {
		cells = append(cells, evalCell{name: st.Name(), strategy: st})
	}
	return c.runCells(cells)
}

// evalCell is one strategy variant to evaluate, optionally with a
// consolidator attached.
type evalCell struct {
	name          string
	strategy      strategy.Strategy
	consolidator  cloudsim.Consolidator
	migrationCost units.Seconds
}

// runCells simulates every cell × cloud combination of the evaluation
// grid concurrently, one goroutine per simulation: the strategies, the
// migration planner and the trace are all read-only during a run, and
// each simulation owns its datacenter state. Results land at fixed
// indices (cells outer, clouds inner) and the reported error is the
// first in that order, so output and failure behavior are identical to
// a serial double loop.
func (c *Context) runCells(cells []evalCell) ([]EvalResult, error) {
	reqs, _, err := c.Workload()
	if err != nil {
		return nil, err
	}
	clouds := []struct {
		name    CloudName
		servers int
	}{
		{Smaller, c.Cfg.SmallServers},
		{Larger, c.Cfg.LargeServers},
	}
	// One seeded fault schedule per cloud, shared by every cell on it:
	// comparing strategies under identical outages is the controlled
	// experiment; per-cell schedules would confound placement with luck.
	schedules := make([]faults.Schedule, len(clouds))
	for j, cl := range clouds {
		sch, err := c.faultSchedule(cl.servers, reqs)
		if err != nil {
			return nil, err
		}
		schedules[j] = sch
	}
	out := make([]EvalResult, len(cells)*len(clouds))
	errs := make([]error, len(out))
	var wg sync.WaitGroup
	for i, cell := range cells {
		for j, cl := range clouds {
			wg.Add(1)
			go func(slot int, cell evalCell, name CloudName, servers int, sch faults.Schedule) {
				defer wg.Done()
				res, err := c.runSim(cloudsim.Config{
					DB:              c.DB,
					Servers:         servers,
					Strategy:        cell.strategy,
					IdleServerPower: c.Cfg.IdleServerPower,
					BackfillDepth:   c.Cfg.BackfillDepth,
					Consolidator:    cell.consolidator,
					MigrationCost:   cell.migrationCost,
					Faults:          sch,
					Checkpoint:      c.Cfg.Checkpoint,
				}, reqs)
				if err != nil {
					errs[slot] = fmt.Errorf("experiments: %s on %s: %w", cell.name, name, err)
					return
				}
				out[slot] = EvalResult{
					Strategy: cell.name,
					Cloud:    name,
					Servers:  servers,
					Metrics:  res.Metrics,
				}
			}(i*len(clouds)+j, cell, cl.name, cl.servers, schedules[j])
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ExtendedNames lists the beyond-paper baselines of Extended.
var ExtendedNames = []string{"FF+MIG", "BF-2"}

// Extended evaluates baselines beyond the paper's six: FF+MIG is
// first-fit placement with reactive migration-based consolidation (the
// dynamic-placement family of the paper's related work, priced with the
// same model database and a 30 s per-move cost), and BF-2 is best-fit
// with 2× multiplexing. Comparing FF+MIG against PA-α quantifies the
// paper's motivation that proactive placement "avoid[s] costly VM
// migrations". Results are cached on the Context.
func (c *Context) Extended() ([]EvalResult, error) {
	c.extOnce.Do(func() {
		ff, err := strategy.NewFirstFit(1)
		if err != nil {
			c.extErr = err
			return
		}
		bf, err := strategy.NewBestFit(2)
		if err != nil {
			c.extErr = err
			return
		}
		cells := []evalCell{
			{
				name:          "FF+MIG",
				strategy:      ff,
				consolidator:  &migrate.Planner{DB: c.DB, MigrationCost: 30},
				migrationCost: 30,
			},
			{name: "BF-2", strategy: bf},
		}
		c.extRes, c.extErr = c.runCells(cells)
	})
	return c.extRes, c.extErr
}

// faultSchedule draws the seeded crash/recovery schedule for one cloud
// size over the trace's arrival span. Nil — and cost-free — when fault
// injection is off (MTBF 0).
func (c *Context) faultSchedule(servers int, reqs []trace.Request) (faults.Schedule, error) {
	if c.Cfg.MTBF <= 0 {
		return nil, nil
	}
	var horizon units.Seconds
	for _, r := range reqs {
		if r.Submit > horizon {
			horizon = r.Submit
		}
	}
	if horizon <= 0 {
		horizon = 1
	}
	sch, err := faults.Generate(faults.GenConfig{
		Seed:    c.Cfg.Seed,
		Servers: servers,
		MTBF:    c.Cfg.MTBF,
		MTTR:    c.Cfg.MTTR,
		Horizon: horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fault schedule for %d servers: %w", servers, err)
	}
	return sch, nil
}

// Workload generates and preprocesses the evaluation trace.
func (c *Context) Workload() ([]trace.Request, trace.PrepReport, error) {
	gcfg := trace.DefaultGenConfig(c.Cfg.Seed)
	// Scale the raw job count to the VM target (cleaning drops ~17 %,
	// and jobs average ~2.5 VMs).
	gcfg.Jobs = c.Cfg.TargetVMs/2 + 200
	tr, err := trace.Generate(gcfg)
	if err != nil {
		return nil, trace.PrepReport{}, err
	}
	pcfg := trace.DefaultPrepConfig(c.Cfg.Seed)
	pcfg.TargetVMs = c.Cfg.TargetVMs
	return trace.Prepare(tr, pcfg)
}

// Strategies builds the paper's six strategies over the context database.
func (c *Context) Strategies() ([]strategy.Strategy, error) {
	var out []strategy.Strategy
	for _, m := range []int{1, 2, 3} {
		ffs, err := strategy.NewFirstFit(m)
		if err != nil {
			return nil, err
		}
		out = append(out, ffs)
	}
	for _, g := range []core.Goal{core.GoalEnergy, core.GoalPerformance, core.GoalBalanced} {
		pa, err := strategy.NewProactive(c.DB, g, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, pa)
	}
	return out, nil
}

// AlphaPoint is one α-sweep outcome on the SMALLER cloud.
type AlphaPoint struct {
	Alpha   float64
	Metrics cloudsim.Metrics
}

// AlphaSweep evaluates PA-α for the given alphas on the SMALLER cloud —
// the paper reports that configurations such as α = 0.75 "did not show
// significant enough variation" to plot; the sweep quantifies that.
func (c *Context) AlphaSweep(alphas []float64) ([]AlphaPoint, error) {
	reqs, _, err := c.Workload()
	if err != nil {
		return nil, err
	}
	sched, err := c.faultSchedule(c.Cfg.SmallServers, reqs)
	if err != nil {
		return nil, err
	}
	// Each α is an independent simulation over the shared read-only
	// trace and database; sweep them concurrently, one goroutine per
	// point, gathered in input order.
	out := make([]AlphaPoint, len(alphas))
	errs := make([]error, len(alphas))
	var wg sync.WaitGroup
	for i, alpha := range alphas {
		wg.Add(1)
		go func(i int, alpha float64) {
			defer wg.Done()
			pa, err := strategy.NewProactive(c.DB, core.Goal{Alpha: alpha}, 0)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := c.runSim(cloudsim.Config{
				DB:              c.DB,
				Servers:         c.Cfg.SmallServers,
				Strategy:        pa,
				IdleServerPower: c.Cfg.IdleServerPower,
				BackfillDepth:   c.Cfg.BackfillDepth,
				Faults:          sched,
				Checkpoint:      c.Cfg.Checkpoint,
			}, reqs)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: alpha %g: %w", alpha, err)
				return
			}
			out[i] = AlphaPoint{Alpha: alpha, Metrics: res.Metrics}
		}(i, alpha)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Find returns the evaluation result for a strategy × cloud pair.
func Find(results []EvalResult, strategyName string, cloud CloudName) (EvalResult, error) {
	for _, r := range results {
		if r.Strategy == strategyName && r.Cloud == cloud {
			return r, nil
		}
	}
	return EvalResult{}, fmt.Errorf("experiments: no result for %s on %s", strategyName, cloud)
}

// Headlines summarizes the paper's headline comparisons over an
// evaluation, per cloud:
//
//   - "The PROACTIVE strategy can provide up to 18% shorter execution
//     times" — MakespanSavingVsFFPct: best PA makespan vs the
//     traditional first-fit approach.
//   - "saves around 12% of energy consumption on average with respect to
//     first-fit (with and without VM multiplexing)" —
//     EnergySavingVsFFPct compares mean PA energy against plain FF,
//     EnergySavingVsFamilyPct against the FF-family mean (our FF-2/FF-3
//     degrade harder than the paper's, so the family-mean saving
//     overshoots; see EXPERIMENTS.md).
//   - PA-0 vs PA-1 makespan and energy orderings (~3 % in the paper,
//     with variations "not very significant, <2%" for PA-0.5).
type Headlines struct {
	Cloud                   CloudName
	MakespanSavingVsFFPct   float64
	EnergySavingVsFFPct     float64
	EnergySavingVsFamilyPct float64
	PA0VsPA1MakespanPct     float64 // positive: PA-0 faster than PA-1
	PA1VsPA0EnergyPct       float64 // positive: PA-1 more frugal than PA-0
	SLAReductionPct         float64 // FF-family mean SLA% minus PA mean SLA%
}

// ComputeHeadlines derives the headline numbers for one cloud.
func ComputeHeadlines(results []EvalResult, cloud CloudName) (Headlines, error) {
	get := func(name string) (cloudsim.Metrics, error) {
		r, err := Find(results, name, cloud)
		return r.Metrics, err
	}
	var ffM, paM []cloudsim.Metrics
	for _, n := range []string{"FF", "FF-2", "FF-3"} {
		m, err := get(n)
		if err != nil {
			return Headlines{}, err
		}
		ffM = append(ffM, m)
	}
	for _, n := range []string{"PA-1", "PA-0", "PA-0.5"} {
		m, err := get(n)
		if err != nil {
			return Headlines{}, err
		}
		paM = append(paM, m)
	}
	minMakespan := func(ms []cloudsim.Metrics) float64 {
		best := float64(ms[0].Makespan)
		for _, m := range ms[1:] {
			if f := float64(m.Makespan); f < best {
				best = f
			}
		}
		return best
	}
	meanEnergy := func(ms []cloudsim.Metrics) float64 {
		return stats.MeanOf(ms, func(m cloudsim.Metrics) float64 { return float64(m.Energy) })
	}
	meanSLA := func(ms []cloudsim.Metrics) float64 {
		return stats.MeanOf(ms, func(m cloudsim.Metrics) float64 { return m.SLAViolationPct() })
	}
	pa1, err := get("PA-1")
	if err != nil {
		return Headlines{}, err
	}
	pa0, err := get("PA-0")
	if err != nil {
		return Headlines{}, err
	}
	ff := ffM[0] // plain FF
	return Headlines{
		Cloud:                   cloud,
		MakespanSavingVsFFPct:   stats.SavingPct(float64(ff.Makespan), minMakespan(paM)),
		EnergySavingVsFFPct:     stats.SavingPct(float64(ff.Energy), meanEnergy(paM)),
		EnergySavingVsFamilyPct: stats.SavingPct(meanEnergy(ffM), meanEnergy(paM)),
		PA0VsPA1MakespanPct:     stats.SavingPct(float64(pa1.Makespan), float64(pa0.Makespan)),
		PA1VsPA0EnergyPct:       stats.SavingPct(float64(pa0.Energy), float64(pa1.Energy)),
		SLAReductionPct:         meanSLA(ffM) - meanSLA(paM),
	}, nil
}
