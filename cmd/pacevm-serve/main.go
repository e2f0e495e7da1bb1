// Command pacevm-serve runs the always-on placement service: the
// paper's energy-aware allocator behind an HTTP/JSON admission pipeline
// with per-client rate limiting, bounded queues, an overload
// degradation ladder, crash-safe snapshot/restore, and optional chaos
// fault injection (see internal/serve).
//
// Quickstart:
//
//	pacevm-serve -addr :8080 -servers 66 -snapshot /var/tmp/pacevm.snap
//	curl -s -XPOST localhost:8080/v1/place \
//	    -d '{"key":"job-1","class":"cpu","vms":2}'
//
// SIGTERM/SIGINT drains: admission closes, queues empty, a final
// snapshot is written and the invariant watchdog sweeps once more; the
// process exits non-zero if any invariant was ever violated.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/faults"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/serve"
	"pacevm/internal/units"
)

type options struct {
	addr          string
	servers       int
	shards        int
	modelDir      string
	alpha         float64
	maxVMs        int
	queueCap      int
	timeout       time.Duration
	watermarks    string
	hysteresis    float64
	dwell         time.Duration
	rate          float64
	burst         int
	snapshot      string
	journal       string
	snapshotEvery time.Duration
	fsync         bool
	restore       bool
	decisionLog   string
	watchdogEvery time.Duration
	debugAddr     string
	drainTimeout  time.Duration
	chaos         bool
	chaosMTBF     float64
	chaosMTTR     float64
	chaosSeed     uint64
	chaosHorizon  time.Duration

	metricsAddr       string
	accessLog         string
	sloTarget         time.Duration
	sloObjective      float64
	sloWindow         time.Duration
	slowRing          int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

func main() {
	var opt options
	flag.StringVar(&opt.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&opt.servers, "servers", 66, "fleet size")
	flag.IntVar(&opt.shards, "shards", 1, "independent placement shards (each with its own worker and queue)")
	flag.StringVar(&opt.modelDir, "model", "", "directory with model.csv/aux.csv (default: run the campaign in-process)")
	flag.Float64Var(&opt.alpha, "alpha", 0.5, "PA optimization goal: 1 = energy, 0 = performance")
	flag.IntVar(&opt.maxVMs, "max-vms", 16, "per-server VM cap (multiple of 4)")
	flag.IntVar(&opt.queueCap, "queue-cap", 256, "per-shard admission queue bound")
	flag.DurationVar(&opt.timeout, "timeout", 2*time.Second, "per-request deadline")
	flag.StringVar(&opt.watermarks, "watermarks", "200ms,800ms", "queue-wait EWMA thresholds stepping the degradation ladder down to first-fit, then to shedding (2 increasing durations)")
	flag.Float64Var(&opt.hysteresis, "hysteresis", 0.5, "step-up threshold as a fraction of the step-down watermark")
	flag.DurationVar(&opt.dwell, "dwell", 200*time.Millisecond, "minimum time between ladder steps")
	flag.Float64Var(&opt.rate, "rate", 0, "per-client admission rate (requests/s; 0 = unlimited)")
	flag.IntVar(&opt.burst, "burst", 8, "per-client token-bucket burst")
	flag.StringVar(&opt.snapshot, "snapshot", "", "snapshot path enabling crash-safe durability (journal at <path>.journal unless -journal)")
	flag.StringVar(&opt.journal, "journal", "", "write-ahead journal path (default <snapshot>.journal)")
	flag.DurationVar(&opt.snapshotEvery, "snapshot-every", 2*time.Second, "snapshot period")
	flag.BoolVar(&opt.fsync, "fsync", false, "fsync every journal record (machine-crash durability, not just kill -9)")
	flag.BoolVar(&opt.restore, "restore", false, "restore from -snapshot (+journal replay) instead of starting fresh")
	flag.StringVar(&opt.decisionLog, "decision-log", "", "attach the admission/ladder/placement flight recorder and write its log here as JSONL at drain (unset: no recorder, nothing is recorded)")
	flag.DurationVar(&opt.watchdogEvery, "watchdog", time.Second, "online invariant sweep period (negative = off)")
	flag.StringVar(&opt.debugAddr, "debug-addr", "", "serve /debug/pprof, /debug/vars and /debug/dash on this address")
	flag.DurationVar(&opt.drainTimeout, "drain-timeout", 10*time.Second, "max wait for queues to empty at shutdown")
	flag.BoolVar(&opt.chaos, "chaos", false, "expose POST /v1/chaos/{crash,recover} fault-injection endpoints")
	flag.Float64Var(&opt.chaosMTBF, "chaos-mtbf", 0, "mean wall seconds between injected server crashes (0 = no injected faults)")
	flag.Float64Var(&opt.chaosMTTR, "chaos-mttr", 5, "mean wall seconds an injected crash lasts")
	flag.Uint64Var(&opt.chaosSeed, "chaos-seed", 42, "seed for the injected fault schedule")
	flag.DurationVar(&opt.chaosHorizon, "chaos-horizon", time.Hour, "span of the injected fault schedule")
	flag.StringVar(&opt.metricsAddr, "metrics", "", "serve /metrics and /debug/slow on a dedicated address too (always mounted on -addr)")
	flag.StringVar(&opt.accessLog, "access-log", "", "append one structured JSON line per request to this file")
	flag.DurationVar(&opt.sloTarget, "slo-target", 0, "per-request latency SLO target enabling rolling attainment/burn-rate tracking (0 = off)")
	flag.Float64Var(&opt.sloObjective, "slo-objective", 0.99, "required good fraction for the SLO (in (0,1))")
	flag.DurationVar(&opt.sloWindow, "slo-window", time.Minute, "sliding SLO measurement window")
	flag.IntVar(&opt.slowRing, "slow-ring", 0, "keep the K slowest requests with stage breakdowns for /debug/slow (0 = off, the default)")
	flag.DurationVar(&opt.readHeaderTimeout, "read-header-timeout", 5*time.Second, "HTTP header read deadline (slow-loris guard)")
	flag.DurationVar(&opt.readTimeout, "read-timeout", 60*time.Second, "HTTP full-request read deadline")
	flag.DurationVar(&opt.idleTimeout, "idle-timeout", 120*time.Second, "HTTP keep-alive idle deadline")
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "pacevm-serve:", err)
		os.Exit(1)
	}
}

func run(opt options) error {
	marks, err := parseWatermarks(opt.watermarks)
	if err != nil {
		return err
	}
	if opt.alpha < 0 || opt.alpha > 1 {
		return fmt.Errorf("alpha %v out of [0,1]", opt.alpha)
	}
	if opt.readHeaderTimeout < 0 || opt.readTimeout < 0 || opt.idleTimeout < 0 {
		return fmt.Errorf("HTTP timeouts must not be negative (read-header %v, read %v, idle %v)",
			opt.readHeaderTimeout, opt.readTimeout, opt.idleTimeout)
	}
	db, err := campaign.LoadDB(opt.modelDir)
	if err != nil {
		return err
	}
	var schedule faults.Schedule
	if opt.chaosMTBF > 0 {
		schedule, err = faults.Generate(faults.GenConfig{
			Seed: opt.chaosSeed, Servers: opt.servers,
			MTBF: units.Seconds(opt.chaosMTBF), MTTR: units.Seconds(opt.chaosMTTR),
			Horizon: units.Seconds(opt.chaosHorizon.Seconds()),
		})
		if err != nil {
			return err
		}
	}

	var accessW *os.File
	if opt.accessLog != "" {
		if accessW, err = os.OpenFile(opt.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return fmt.Errorf("access log: %w", err)
		}
		defer accessW.Close()
	}

	reg := obs.NewRegistry()
	cfg := serviceConfig(opt, marks, db, reg)
	if accessW != nil {
		cfg.AccessLog = accessW
	}
	svc, err := serve.NewService(cfg)
	if err != nil {
		return err
	}

	// Take over SIGTERM/SIGINT before any listener opens: from the first
	// answered request on, a signal must drain the service, never kill
	// the process with the default disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	if opt.debugAddr != "" {
		dbg, err := obs.ServeDebug(opt.debugAddr, reg)
		if err != nil {
			return err
		}
		dbg.AddWallTracer(svc.WallTracer())
		dbg.AddSLO(svc.SLO())
		defer dbg.Close()
	}

	if opt.metricsAddr != "" {
		mln, err := net.Listen("tcp", opt.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		msrv := &http.Server{Handler: svc.ObsHandler(), ReadHeaderTimeout: opt.readHeaderTimeout}
		go msrv.Serve(mln) //nolint:errcheck // ErrServerClosed after Close
		defer msrv.Close()
		fmt.Printf("pacevm-serve: metrics on %s\n", mln.Addr())
	}

	stopChaos := make(chan struct{})
	if len(schedule) > 0 {
		go runChaos(svc, schedule, stopChaos)
	}

	ln, err := net.Listen("tcp", opt.addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(opt, svc.Handler(opt.chaos))
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(ln) }()
	fmt.Printf("pacevm-serve: listening on %s\n", ln.Addr())

	select {
	case s := <-sig:
		fmt.Printf("pacevm-serve: %v, draining\n", s)
	case err := <-httpDone:
		return fmt.Errorf("http server: %w", err)
	}
	close(stopChaos)
	_ = srv.Close()

	violations := svc.Drain(opt.drainTimeout)
	if cfg.Recorder != nil {
		if err := writeDecisionLog(opt.decisionLog, cfg.Recorder); err != nil {
			return err
		}
		fmt.Printf("pacevm-serve: decision log: %s (%d decisions)\n", opt.decisionLog, cfg.Recorder.Len())
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "pacevm-serve: invariant violation: %s: %s\n", v.Check, v.Detail)
		}
		return fmt.Errorf("%d invariant violation(s)", len(violations))
	}
	fmt.Println("pacevm-serve: drained clean")
	return nil
}

// serviceConfig assembles the service configuration from the flags.
// The decision recorder is attached only when -decision-log asks for
// the log: without one every decision stops at the service's nil check
// instead of growing an in-memory log that nothing reads.
func serviceConfig(opt options, marks [2]time.Duration, db *model.DB, reg *obs.Registry) serve.Config {
	cfg := serve.Config{
		DB:              db,
		Goal:            core.Goal{Alpha: opt.alpha},
		Servers:         opt.servers,
		Shards:          opt.shards,
		MaxVMsPerServer: opt.maxVMs,
		QueueCap:        opt.queueCap,
		RequestTimeout:  opt.timeout,
		Watermarks:      marks,
		Hysteresis:      opt.hysteresis,
		LadderDwell:     opt.dwell,
		RatePerSec:      opt.rate,
		RateBurst:       opt.burst,
		SnapshotPath:    opt.snapshot,
		JournalPath:     opt.journal,
		SnapshotEvery:   opt.snapshotEvery,
		Fsync:           opt.fsync,
		Restore:         opt.restore,
		WatchdogEvery:   opt.watchdogEvery,
		Obs:             reg,
		SlowRing:        opt.slowRing,
		SLOTarget:       opt.sloTarget,
		SLOObjective:    opt.sloObjective,
		SLOWindow:       opt.sloWindow,
	}
	if opt.decisionLog != "" {
		cfg.Recorder = cloudsim.NewDecisionRecorder()
	}
	return cfg
}

// newHTTPServer builds the client-facing HTTP server with the
// slow-client deadlines: a peer that trickles headers (slow loris),
// stalls mid-body, or parks an idle keep-alive connection gets cut
// instead of pinning a connection forever.
func newHTTPServer(opt options, h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: opt.readHeaderTimeout,
		ReadTimeout:       opt.readTimeout,
		IdleTimeout:       opt.idleTimeout,
	}
}

// runChaos walks a generated fault schedule in wall time, injecting
// crashes and recoveries through the service's fault hooks.
func runChaos(svc *serve.Service, schedule faults.Schedule, stop <-chan struct{}) {
	type step struct {
		at    time.Duration
		srv   int
		crash bool
	}
	steps := make([]step, 0, 2*len(schedule))
	for _, e := range schedule {
		steps = append(steps,
			step{at: time.Duration(float64(e.Down) * float64(time.Second)), srv: e.Server, crash: true},
			step{at: time.Duration(float64(e.Up) * float64(time.Second)), srv: e.Server, crash: false})
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	start := time.Now()
	for _, st := range steps {
		select {
		case <-stop:
			return
		case <-time.After(time.Until(start.Add(st.at))):
		}
		if st.crash {
			_ = svc.CrashServer(st.srv)
		} else {
			_ = svc.RecoverServer(st.srv)
		}
	}
}

func parseWatermarks(s string) ([2]time.Duration, error) {
	var out [2]time.Duration
	parts := strings.Split(s, ",")
	if len(parts) != len(out) {
		return out, fmt.Errorf("watermarks %q: want exactly %d comma-separated durations", s, len(out))
	}
	for i, p := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return out, fmt.Errorf("watermarks %q: %w", s, err)
		}
		out[i] = d
	}
	return out, nil
}

func writeDecisionLog(path string, rec *cloudsim.DecisionRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
