// Command pacevm-sim runs one datacenter simulation (Sect. IV): a
// placement strategy over a workload trace on a cloud of simulated
// servers, reporting makespan, energy and SLA violations.
//
//	pacevm-sim -strategy PA-0.5 -servers 66
//	pacevm-sim -strategy FF-2 -swf trace.swf
//	pacevm-sim -strategy PA-1 -model ./modeldir   # reuse a stored model
//	pacevm-sim -strategy FF-3 -trace out.json -debug-addr :6060
//	pacevm-sim -strategy PA-0.5 -mtbf 86400 -mttr 600 -checkpoint periodic:900
//	pacevm-sim -strategy PA-1 -faults outages.csv -search-budget 4
//	pacevm-sim -strategy PA-0.5 -vm-audit audit.csv -series series.csv
//	pacevm-sim -strategy FF-3 -servers 1000 -shards 8
//	pacevm-sim -strategy PA-0.5 -decision-log decisions.jsonl -watchdog 4096
//
// With -trace the run is recorded as Chrome trace-event JSON over
// simulated time (load it at https://ui.perfetto.dev), alongside a
// <out>.manifest.json run manifest listing every sibling artifact;
// with -shards the per-shard streams are merged onto one timeline with
// the coordinator's windows and steals as their own process. -vm-audit
// exports one lifecycle span per VM attempt (wait, service, stretch,
// requeue chain, deadline-miss attribution) and -series the fleet
// power/occupancy time series, both as CSV; -debug-addr serves
// net/http/pprof, expvar (including the live metrics registry) and the
// /debug/dash live HTML dashboard while the simulation runs.
//
// With -decision-log every admit/route/place/reject/steal/requeue/
// migrate decision is appended to a JSONL flight-recorder log —
// candidate counts, rejection reasons, search statistics, chosen
// servers — which cmd/pacevm-explain replays to reconstruct any VM's
// placement chain. With -watchdog N the online invariant watchdog
// re-derives energy integrals, work conservation and capacity sums
// every N events; violations are reported after the run (and on
// /debug/dash) and the process exits non-zero if any fired.
//
// With -mtbf (seeded generation) or -faults (a stored schedule) servers
// crash and recover during the run: resident VMs are killed — losing
// work per the -checkpoint policy — and re-queued, and the report gains
// availability and goodput lines. -search-budget bounds the PA
// allocation search, degrading to first-fit when exhausted. A request
// holds 1–4 identical VMs, so its search scores at most 5 distinct
// partitions: budgets of 5 or more never bite on generated traces.
//
// With -shards N the fleet is partitioned into N contiguous server
// groups simulated in parallel and merged deterministically at windowed
// barriers (see cloudsim.RunSharded for the protocol and its documented
// relaxations of global FCFS); -shard-window tunes the simulated-time
// window between barriers, and -steal lets a shard hand a provably
// stuck queue head to a shard with proven free capacity at a barrier
// (FF-n only: PA and BF prove no capacity, so -steal rejects them).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/faults"
	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
	"pacevm/internal/swf"
	"pacevm/internal/trace"
	"pacevm/internal/units"
)

// options collects the CLI surface; one run() argument instead of a
// dozen positional parameters.
type options struct {
	stratName   string
	servers     int
	seed        uint64
	vms         int
	swfPath     string
	modelDir    string
	tracePath   string
	debugAddr   string
	alwaysOn    bool
	consolidate bool
	backfill    int

	mtbf         float64
	mttr         float64
	faultsPath   string
	checkpoint   string
	searchBudget int

	vmAuditPath string
	seriesPath  string
	seriesCap   int

	decisionLog   string
	watchdogEvery int

	shards      int
	steal       bool
	shardWindow float64
	windowSet   bool // -shard-window given explicitly (flag.Visit)
}

func main() {
	var opt options
	flag.StringVar(&opt.stratName, "strategy", "PA-0.5", "FF, FF-2, FF-3, BF-n (n 1-4), PA-1, PA-0, PA-0.5 or PA-<alpha>")
	flag.IntVar(&opt.servers, "servers", 66, "cloud size")
	flag.Uint64Var(&opt.seed, "seed", 42, "random seed for trace generation")
	flag.IntVar(&opt.vms, "vms", 10000, "target VM count for a generated trace; with -swf, the VM count to replay (0 = the whole trace)")
	flag.StringVar(&opt.swfPath, "swf", "", "SWF trace to replay (default: generate synthetically)")
	flag.StringVar(&opt.modelDir, "model", "", "directory with model.csv/aux.csv (default: run the campaign in-process)")
	flag.StringVar(&opt.tracePath, "trace", "", "write a Chrome trace-event JSON timeline of the run (plus <path>.manifest.json)")
	flag.StringVar(&opt.debugAddr, "debug-addr", "", "serve /debug/pprof, /debug/vars and the /debug/dash dashboard on this address (e.g. :6060)")
	flag.BoolVar(&opt.alwaysOn, "always-on", false, "bill 125 W for empty servers instead of powering them off")
	flag.BoolVar(&opt.consolidate, "consolidate", false, "enable reactive migration-based consolidation (30 s per move)")
	flag.IntVar(&opt.backfill, "backfill", 0, "backfill window depth behind a blocked queue head (0 = strict FCFS)")
	flag.Float64Var(&opt.mtbf, "mtbf", 0, "mean seconds between failures per server; 0 disables fault injection")
	flag.Float64Var(&opt.mttr, "mttr", 300, "mean outage seconds per failure (used with -mtbf)")
	flag.StringVar(&opt.faultsPath, "faults", "", "fault schedule CSV to replay (server,down_s,up_s header); overrides -mtbf")
	flag.StringVar(&opt.checkpoint, "checkpoint", "restart", `checkpoint policy for VMs killed by a crash: "restart" or "periodic:<seconds>"`)
	flag.IntVar(&opt.searchBudget, "search-budget", 0, "cap on scored candidate placements per PA allocation, degrading to first-fit when exhausted; 0 = unlimited")
	flag.StringVar(&opt.vmAuditPath, "vm-audit", "", "write the per-attempt VM lifecycle audit as CSV (submit/place/finish spans with wait, stretch and deadline-miss attribution)")
	flag.StringVar(&opt.seriesPath, "series", "", "write the fleet power/occupancy time series as CSV (one row per sampled accounting interval)")
	flag.IntVar(&opt.seriesCap, "series-cap", 0, "bound on retained series samples before deterministic downsampling halves resolution; 0 = default 4096")
	flag.StringVar(&opt.decisionLog, "decision-log", "", "write the placement decision flight-recorder log as JSONL (replay with pacevm-explain)")
	flag.IntVar(&opt.watchdogEvery, "watchdog", 0, "run the online invariant watchdog every N events (0 = off)")
	flag.IntVar(&opt.shards, "shards", 1, "partition the fleet into this many shards simulated in parallel (deterministic; 1 = the single event loop)")
	flag.Float64Var(&opt.shardWindow, "shard-window", 0, "simulated seconds per parallel window between shard barriers; 0 = auto from the arrival span")
	flag.BoolVar(&opt.steal, "steal", false, "with -shards and an FF-n strategy: hand a provably stuck queue head to a shard with proven capacity at each barrier (relaxes per-shard FCFS)")
	flag.Parse()
	// Distinguish an explicit -shard-window 0 (an error: a zero-length
	// window cannot advance) from the unset default (auto sizing).
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shard-window" {
			opt.windowSet = true
		}
	})

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "pacevm-sim:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	if opt.vms < 0 {
		return fmt.Errorf("-vms %d must be non-negative", opt.vms)
	}
	if opt.seriesCap < 0 {
		return fmt.Errorf("-series-cap %d must be non-negative", opt.seriesCap)
	}
	// The zero value means "unset" (options built in tests); the flag
	// default is 1.
	if opt.shards < 0 {
		return fmt.Errorf("-shards %d must be at least 1", opt.shards)
	}
	if opt.shardWindow < 0 || (opt.windowSet && opt.shardWindow <= 0) {
		return fmt.Errorf("-shard-window %g must be positive; omit the flag for auto sizing from the arrival span", opt.shardWindow)
	}
	if opt.watchdogEvery < 0 {
		return fmt.Errorf("-watchdog %d must be non-negative (0 = off)", opt.watchdogEvery)
	}
	if opt.steal && opt.shards <= 1 {
		return fmt.Errorf("-steal needs -shards > 1; a single shard has nowhere to hand work off")
	}
	if opt.searchBudget < 0 {
		return fmt.Errorf("-search-budget %d must be non-negative (0 = unlimited)", opt.searchBudget)
	}
	spec, err := parseStrategyName(opt.stratName)
	if err != nil {
		return err
	}
	if _, ok := spec.st.(strategy.CapacityHinter); opt.steal && !ok {
		return fmt.Errorf("-steal needs a strategy that can prove spare capacity, and %s cannot (only FF-n implements strategy.CapacityHinter)", opt.stratName)
	}
	if opt.searchBudget > 0 && spec.st != nil {
		return fmt.Errorf("-search-budget bounds the PA search, and strategy %s runs none", opt.stratName)
	}
	checkpoint, err := faults.ParsePolicy(opt.checkpoint)
	if err != nil {
		return err
	}

	var reg *obs.Registry
	if opt.tracePath != "" || opt.debugAddr != "" || opt.searchBudget > 0 ||
		opt.decisionLog != "" || opt.watchdogEvery != 0 {
		reg = obs.NewRegistry()
	}
	// The sampler feeds both the -series CSV and the live dashboard, so a
	// debug server alone is enough to turn it on.
	var sampler *cloudsim.FleetSampler
	if opt.seriesPath != "" || opt.debugAddr != "" {
		sampler = cloudsim.NewFleetSampler(opt.seriesCap)
	}
	var wd *obs.Watchdog
	if opt.watchdogEvery != 0 {
		wd = obs.NewWatchdog(opt.watchdogEvery)
	}
	if opt.debugAddr != "" {
		ds, err := obs.ServeDebug(opt.debugAddr, reg)
		if err != nil {
			return err
		}
		defer ds.Close()
		ds.AddSeries(sampler.Series)
		ds.AddWatchdog(wd)
		fmt.Printf("debug server: http://%s/debug/dash (also /debug/pprof/ and /debug/vars)\n", ds.Addr())
	}

	db, err := campaign.LoadDB(opt.modelDir)
	if err != nil {
		return err
	}

	var tr *swf.Trace
	if opt.swfPath != "" {
		f, err := os.Open(opt.swfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if tr, err = swf.Parse(f); err != nil {
			return err
		}
	} else {
		gcfg := trace.DefaultGenConfig(opt.seed)
		gcfg.Jobs = opt.vms/2 + 200
		if tr, err = trace.Generate(gcfg); err != nil {
			return err
		}
	}
	pcfg := trace.DefaultPrepConfig(opt.seed)
	pcfg.TargetVMs = opt.vms
	reqs, rep, err := trace.Prepare(tr, pcfg)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d requests, %d VMs\n", rep.Requests, rep.TotalVMs)

	st, err := spec.build(db, opt.searchBudget, reg)
	if err != nil {
		return err
	}
	cfg := cloudsim.Config{DB: db, Servers: opt.servers, Strategy: st, IdleServerPower: -1, BackfillDepth: opt.backfill, Obs: reg}
	if opt.alwaysOn {
		cfg.IdleServerPower = 125
	}
	if opt.consolidate {
		cfg.Consolidator = &migrate.Planner{DB: db, MigrationCost: 30}
	}
	if cfg.Faults, err = loadFaults(opt, reqs); err != nil {
		return err
	}
	if len(cfg.Faults) > 0 {
		cfg.Checkpoint = checkpoint
		fmt.Printf("faults: %d scheduled outages (checkpoint %s)\n", len(cfg.Faults), checkpoint.Name())
	}
	if opt.tracePath != "" {
		cfg.Tracer = obs.NewTracer()
	}
	cfg.Sampler = sampler
	if opt.vmAuditPath != "" {
		cfg.Audit = cloudsim.NewVMAudit()
	}
	if opt.decisionLog != "" {
		cfg.Recorder = cloudsim.NewDecisionRecorder()
	}
	cfg.Watchdog = wd
	simulate := cloudsim.Run
	if opt.shards > 1 {
		sc := cloudsim.ShardConfig{Shards: opt.shards, Window: units.Seconds(opt.shardWindow), Steal: opt.steal}
		simulate = func(cfg cloudsim.Config, reqs []trace.Request) (cloudsim.Result, error) {
			return cloudsim.RunSharded(cfg, reqs, sc)
		}
	}
	start := time.Now()
	res, err := simulate(cfg, reqs)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	m := res.Metrics
	fmt.Printf("strategy:     %s on %d servers\n", st.Name(), opt.servers)
	if opt.shards > 1 {
		fmt.Printf("shards:       %d\n", opt.shards)
	}
	fmt.Printf("makespan:     %v\n", m.Makespan)
	fmt.Printf("energy:       %v\n", m.Energy)
	fmt.Printf("SLA violated: %d/%d VMs (%.1f%%)\n", m.Violations, m.TotalVMs, m.SLAViolationPct())
	fmt.Printf("avg response: %v   avg wait: %v\n", m.AvgResponse, m.AvgWait)
	fmt.Printf("peak active servers: %d\n", m.PeakActiveServers)
	if opt.consolidate {
		fmt.Printf("migrations:   %d (%d servers drained)\n", m.Migrations, m.ServersDrained)
	}
	if len(cfg.Faults) > 0 {
		fmt.Printf("faults:       %d injected, %d VMs killed, %d re-queued\n", m.FaultsInjected, m.VMsKilled, m.Requeues)
		fmt.Printf("work lost:    %v   goodput: %.2f%%\n", m.WorkLost, m.GoodputPct())
		fmt.Printf("availability: %.2f%% (%.0f server-seconds down)\n", m.AvailabilityPct(opt.servers), m.DownServerSeconds)
	}
	if opt.searchBudget > 0 {
		snap := reg.Snapshot()
		fmt.Printf("search budget: %d candidates/allocation (exhausted %d times, %d first-fit degradations)\n",
			opt.searchBudget, snap.Counters["search_budget_exhausted"], snap.Counters["search_degraded_firstfit"])
	}
	rate := float64(rep.Requests) / wall.Seconds()
	fmt.Printf("simulated in: %v (%.0f requests/s)\n", wall.Round(time.Millisecond), rate)

	if opt.vmAuditPath != "" {
		if err := writeCSVFile(opt.vmAuditPath, cfg.Audit.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("vm audit: %d spans -> %s\n", cfg.Audit.Len(), opt.vmAuditPath)
	}
	if opt.seriesPath != "" {
		if err := writeCSVFile(opt.seriesPath, sampler.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("series: %d samples (stride %d) -> %s\n", sampler.Len(), sampler.Stride(), opt.seriesPath)
	}
	if opt.decisionLog != "" {
		if err := writeCSVFile(opt.decisionLog, cfg.Recorder.WriteJSONL); err != nil {
			return err
		}
		fmt.Printf("decision log: %d records -> %s (replay with pacevm-explain)\n", cfg.Recorder.Len(), opt.decisionLog)
	}
	if wd != nil {
		viols := wd.Violations()
		snap := reg.Snapshot()
		fmt.Printf("watchdog:     %d invariant checks, %d violations\n",
			snap.Counters["sim_invariant_checks_total"], len(viols))
		for _, v := range viols {
			fmt.Fprintln(os.Stderr, "pacevm-sim: invariant violation:", v)
		}
	}
	if opt.tracePath != "" {
		if err := writeTrace(opt, cfg.Tracer, reg, m, wall); err != nil {
			return err
		}
	}
	if wd != nil && len(wd.Violations()) > 0 {
		return fmt.Errorf("%d invariant violations (see above)", len(wd.Violations()))
	}
	return nil
}

// writeCSVFile creates path and streams one of the CSV exporters into it.
func writeCSVFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace dumps the Chrome trace timeline to opt.tracePath and a run
// manifest (flags, seed, metrics, telemetry snapshot, wall clock) next
// to it.
func writeTrace(opt options, tr *obs.Tracer, reg *obs.Registry, m cloudsim.Metrics, wall time.Duration) error {
	tf, err := os.Create(opt.tracePath)
	if err != nil {
		return err
	}
	other := map[string]any{"tool": "pacevm-sim", "strategy": opt.stratName, "servers": opt.servers}
	if err := tr.WriteTo(tf, other); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %d events -> %s (load at https://ui.perfetto.dev)\n", tr.Len(), opt.tracePath)

	manifestPath := opt.tracePath + ".manifest.json"
	mf, err := os.Create(manifestPath)
	if err != nil {
		return err
	}
	artifacts := map[string]string{"trace": opt.tracePath}
	if opt.vmAuditPath != "" {
		artifacts["vm_audit"] = opt.vmAuditPath
	}
	if opt.seriesPath != "" {
		artifacts["series"] = opt.seriesPath
	}
	if opt.decisionLog != "" {
		artifacts["decision_log"] = opt.decisionLog
	}
	manifest := obs.Manifest{
		Command: "pacevm-sim",
		Config: map[string]any{
			"strategy": opt.stratName, "servers": opt.servers, "vms": opt.vms,
			"swf": opt.swfPath, "model": opt.modelDir, "backfill": opt.backfill,
			"always_on": opt.alwaysOn, "consolidate": opt.consolidate,
			"mtbf": opt.mtbf, "mttr": opt.mttr, "faults": opt.faultsPath,
			"checkpoint": opt.checkpoint, "search_budget": opt.searchBudget,
			"shards": opt.shards, "steal": opt.steal, "shard_window": opt.shardWindow,
			"watchdog": opt.watchdogEvery,
		},
		Seed:             opt.seed,
		WallClockSeconds: wall.Seconds(),
		Metrics:          m,
		Artifacts:        artifacts,
		Telemetry:        reg.Snapshot(),
	}
	if err := obs.WriteManifest(mf, manifest); err != nil {
		mf.Close()
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}
	fmt.Printf("manifest: %s\n", manifestPath)
	return nil
}

// loadFaults resolves the fault schedule: an explicit CSV wins, else a
// seeded MTBF/MTTR process over the trace's arrival span, else none.
func loadFaults(opt options, reqs []trace.Request) (faults.Schedule, error) {
	if opt.faultsPath != "" {
		f, err := os.Open(opt.faultsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return faults.ReadSchedule(f)
	}
	if opt.mtbf <= 0 {
		return nil, nil
	}
	var horizon units.Seconds
	for _, r := range reqs {
		if r.Submit > horizon {
			horizon = r.Submit
		}
	}
	if horizon <= 0 {
		horizon = 1 // all arrivals at t=0: still expose the fleet to faults
	}
	return faults.Generate(faults.GenConfig{
		Seed:    opt.seed,
		Servers: opt.servers,
		MTBF:    units.Seconds(opt.mtbf),
		MTTR:    units.Seconds(opt.mttr),
		Horizon: horizon,
	})
}

// strategySpec is a parsed -strategy value. First-fit and best-fit are
// built as soon as the name is parsed; PA needs the model database, so
// it is built from its validated goal once the database is loaded.
type strategySpec struct {
	st    strategy.Strategy // nil for PA
	alpha float64           // PA's goal
}

// parseStrategyName validates a -strategy name before anything is loaded
// or printed, so a bad name fails at once.
func parseStrategyName(name string) (strategySpec, error) {
	upper := strings.ToUpper(name)
	switch upper {
	case "FF":
		return firstFitSpec(1)
	case "FF-2":
		return firstFitSpec(2)
	case "FF-3":
		return firstFitSpec(3)
	}
	if alphaStr, ok := strings.CutPrefix(upper, "PA-"); ok {
		alpha, err := strconv.ParseFloat(alphaStr, 64)
		if err != nil {
			return strategySpec{}, fmt.Errorf("bad PA alpha %q: %w", alphaStr, err)
		}
		if !(alpha >= 0 && alpha <= 1) { // NaN fails both
			return strategySpec{}, fmt.Errorf("PA alpha %g out of [0,1]", alpha)
		}
		return strategySpec{alpha: alpha}, nil
	}
	if nStr, ok := strings.CutPrefix(upper, "BF-"); ok {
		n, err := strconv.Atoi(nStr)
		if err != nil {
			return strategySpec{}, fmt.Errorf("bad BF multiplex %q: %w", nStr, err)
		}
		// Best-fit keeps choosing the fullest server under its cap, so a
		// cap past the admission limit picks full servers the simulator
		// then refuses, and the whole trace queues behind one server.
		if cap := n * strategy.CPUSlotsPerServer; cap > cloudsim.DefaultMaxVMsPerServer {
			return strategySpec{}, fmt.Errorf("BF-%d allows %d VMs per server, over the %d-VM admission limit",
				n, cap, cloudsim.DefaultMaxVMsPerServer)
		}
		bf, err := strategy.NewBestFit(n)
		if err != nil {
			return strategySpec{}, err
		}
		return strategySpec{st: bf}, nil
	}
	return strategySpec{}, fmt.Errorf("unknown strategy %q", name)
}

func firstFitSpec(multiplex int) (strategySpec, error) {
	ff, err := strategy.NewFirstFit(multiplex)
	return strategySpec{st: ff}, err
}

// build returns the strategy, building PA over db.
func (s strategySpec) build(db *model.DB, searchBudget int, reg *obs.Registry) (strategy.Strategy, error) {
	if s.st != nil {
		return s.st, nil
	}
	return strategy.NewProactiveConfig(core.Config{DB: db, SearchBudget: searchBudget, Obs: reg}, core.Goal{Alpha: s.alpha})
}
