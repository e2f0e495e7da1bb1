// Command perfbench is the PACE-VM benchmark: three workloads that run
// the simulator through cloudsim.Run and the placement service through
// the real pacevm-serve binary over loopback HTTP, check their outputs,
// and print every end-to-end metric (or, with -trace 1, every per-layer
// metric) by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it through run.py from the repository root, which builds
// this binary and pacevm-serve from source:
//
//	python3 perfbench/run.py --workload sim-pa --seed 1 --seconds 10 --trace 0
//
// Every run must report every end-to-end metric, so every workload runs
// a simulator part and the same service part, each in its own child
// process. sim-pa and sim-ff-fleet simulate at full size and report the
// simulator's set-up time and peak memory; serve-durable simulates the
// paper's SMALLER cloud and reports those of pacevm-serve. -workload all
// runs the three in turn.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// workload names the simulation a workload runs and whether it is the
// workload's own, full-size part; serve-durable's own part is the
// service.
type workload struct {
	sim     string // key of simSpecs
	simFull bool
}

var workloads = map[string]workload{
	"sim-pa":        {sim: "pa", simFull: true},
	"sim-ff-fleet":  {sim: "ff", simFull: true},
	"serve-durable": {sim: "pa-small"},
}

// workloadOrder is the order -workload all runs them in.
var workloadOrder = []string{"sim-pa", "sim-ff-fleet", "serve-durable"}

// e2eUnits lists the end-to-end metrics, in print order, with units.
// Throughput and service cost are CPU-time figures: on a shared host the
// vCPUs are taken away for stretches (steal), which moves wall-clock
// rates by tens of percent between back-to-back runs. The host's speed
// drifts as well, so set-up time and both CPU-time figures are scaled to
// a reference host by interleaved probe bursts (probe.go). For the same
// reason client latencies (which drifted by 30% within ten runs) and the
// rate ladder's max_ok_rate are per-layer diagnostics (bench.*).
var e2eUnits = [][2]string{
	{"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"sim_req_per_cpu_s", "1/s"}, {"energy_mj", "MJ"}, {"sla_met_pct", "%"}, {"makespan_s", "s"},
	{"serve_cpu_us_per_op", "us"}, {"ok_ratio", "ratio"},
}

// perLayer lists the per-layer metrics of a traced run, with units,
// named by the module they measure. A layer a workload does not run
// reads 0 (core.* under first-fit, for instance).
var perLayer = [][2]string{
	{"campaign.build_s", "s"}, {"trace.gen_s", "s"},
	{"cloudsim.self_s", "s"}, {"cloudsim.events_popped", "count"},
	{"cloudsim.place_attempts", "count"}, {"cloudsim.place_rejected", "count"},
	{"cloudsim.place_success_ratio", "ratio"}, {"cloudsim.fleet_scans", "count"},
	{"cloudsim.fit_skips", "count"}, {"cloudsim.pricing_cache_hit_ratio", "ratio"},
	{"cloudsim.allocs_per_req", "count"}, {"cloudsim.bytes_per_req", "B"},
	{"cloudsim.watchdog_rounding_drift", "count"},
	{"eventq.depth_highwater", "count"}, {"eventq.slab_grown", "count"}, {"eventq.cancelled", "count"},
	{"strategy.calls", "count"}, {"strategy.busy_s", "s"}, {"strategy.ns_per_call", "ns"},
	{"core.partitions_enumerated", "count"}, {"core.partitions_deduped", "count"},
	{"core.candidates_feasible", "count"}, {"core.candidates_infeasible", "count"},
	{"core.pareto_pruned", "count"}, {"core.feasible_ratio", "ratio"},
	{"core.budget_exhausted", "count"}, {"core.degraded_firstfit", "count"},
	{"model.cache_hits", "count"}, {"model.cache_misses", "count"},
	{"model.cache_hit_ratio", "ratio"}, {"model.cache_size", "count"},
	{"serve.decode_p50_ms", "ms"}, {"serve.decode_p90_ms", "ms"},
	{"serve.ratelimit_p50_ms", "ms"}, {"serve.ratelimit_p90_ms", "ms"},
	{"serve.idempotency_p50_ms", "ms"}, {"serve.idempotency_p90_ms", "ms"},
	{"serve.queue_p50_ms", "ms"}, {"serve.queue_p90_ms", "ms"},
	{"serve.search_p50_ms", "ms"}, {"serve.search_p90_ms", "ms"},
	{"serve.journal_p50_ms", "ms"}, {"serve.journal_p90_ms", "ms"},
	{"serve.ack_p50_ms", "ms"}, {"serve.ack_p90_ms", "ms"},
	{"serve.server_p50_ms", "ms"}, {"serve.transport_p50_ms", "ms"},
	{"serve.replay_server_p50_ms", "ms"}, {"serve.release_server_p50_ms", "ms"},
	{"serve.snapshots", "count"}, {"serve.snapshot_bytes", "B"},
	{"serve.ladder_steps", "count"}, {"serve.shed", "count"}, {"serve.rejects", "count"},
	{"serve.queue_wait_p99_ms", "ms"}, {"serve.place_p99_ms", "ms"},
	{"bench.gen_late_p90_ms", "ms"}, {"bench.achieved_over_offered", "ratio"},
	{"bench.trace_overhead_pct", "%"}, {"bench.host_probe_ms", "ms"},
	{"bench.sim_req_per_wall_s", "1/s"},
	{"bench.light_place_p50_ms", "ms"}, {"bench.light_place_p90_ms", "ms"},
	{"bench.heavy_place_p50_ms", "ms"}, {"bench.heavy_place_p90_ms", "ms"},
	{"bench.heavy_replay_p50_ms", "ms"}, {"bench.heavy_release_p50_ms", "ms"},
	{"bench.max_ok_rate", "1/s"},
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	serveBin string
	workDir  string

	part    string
	name    string
	budget  float64
	minReps int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "sim-pa, sim-ff-fleet, serve-durable or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of repeated full-size simulation (half of it for serve-durable's smaller one)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "pacevm-serve binary")
	flag.StringVar(&o.workDir, "work-dir", "", "directory for the service's state (a fresh subdirectory per run)")
	flag.StringVar(&o.part, "part", "", "run one part (sim or serve) and print its JSON result")
	flag.StringVar(&o.name, "name", "", "the part's configuration")
	flag.Float64Var(&o.budget, "budget", 0, "sim part: seconds of repeated simulation")
	flag.IntVar(&o.minReps, "min-reps", 3, "sim part: fewest repeated simulations")
	flag.Parse()

	var err error
	if o.part != "" {
		err = runPart(o)
	} else {
		err = orchestrate(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runPart runs one part in this process and prints its result as JSON.
func runPart(o options) error {
	var res any
	var err error
	switch o.part {
	case "sim":
		res, err = runSim(o.name, o.seed, time.Duration(o.budget*float64(time.Second)), o.minReps, o.trace == 1)
	case "serve":
		res, err = runServe(o.seed, o.serveBin, o.workDir, o.trace == 1)
	default:
		err = fmt.Errorf("unknown part %q", o.part)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// child runs one part in a child process, decoding its JSON into out,
// and returns the child's peak resident set in MB.
func child(o options, part, name string, budget float64, minReps int, out any) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-part", part, "-name", name,
		"-seed", strconv.FormatUint(o.seed, 10), "-trace", strconv.Itoa(o.trace),
		"-budget", strconv.FormatFloat(budget, 'f', -1, 64), "-min-reps", strconv.Itoa(minReps),
		"-serve-bin", o.serveBin, "-work-dir", o.workDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s part %s: %w", part, name, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return 0, fmt.Errorf("%s part %s: %w", part, name, err)
	}
	var peak float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peak = float64(ru.Maxrss) / 1024
	}
	return peak, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// orchestrate runs one workload, or each in turn for -workload all, and
// prints the result object as the last line. With all, every metric name
// carries its workload as a prefix.
func orchestrate(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	if o.serveBin == "" || o.workDir == "" {
		return fmt.Errorf("-serve-bin and -work-dir are required")
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadOrder
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			return fmt.Errorf("unknown workload %q (want sim-pa, sim-ff-fleet, serve-durable or all)", name)
		}
		if len(names) > 1 {
			fmt.Println("== " + name)
		}
		res, err := runWorkload(o, name, w)
		if err != nil {
			return err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !total.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runWorkload runs one workload's two parts and prints its failed checks
// and its metrics, one per line with the unit.
func runWorkload(o options, name string, w workload) (result, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.workDir, name+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	o.workDir = dir

	budget, minReps := float64(o.seconds), 3
	if !w.simFull {
		budget, minReps = float64(o.seconds)/2, 5
	}
	var sim simResult
	simPeak, err := child(o, "sim", w.sim, budget, minReps, &sim)
	if err != nil {
		return result{}, err
	}
	var srv serveResult
	if _, err := child(o, "serve", "", 0, 0, &srv); err != nil {
		return result{}, err
	}
	light, heavy := srv.Phases["light"], srv.Phases["heavy"]

	failures := append(append([]string(nil), sim.Failures...), srv.Failures...)
	res := result{
		Attempted: sim.Requests*(sim.Reps+o.trace) + srv.Attempted,
		Failed:    srv.Failed,
		Metrics:   map[string]metric{},
	}
	if o.trace == 1 {
		layers := map[string]float64{}
		for k, v := range sim.Layers {
			layers[k] = v
		}
		for k, v := range srv.Layers {
			if k == "bench.trace_overhead_pct" && w.simFull {
				continue // the full-size part's overhead is the workload's
			}
			layers[k] = v
		}
		layers["bench.sim_req_per_wall_s"] = sim.ReqPerS
		layers["bench.host_probe_ms"] = sim.ProbeMS
		layers["bench.light_place_p50_ms"] = light.PlaceP50
		layers["bench.light_place_p90_ms"] = light.PlaceP90
		layers["bench.heavy_place_p50_ms"] = heavy.PlaceP50
		layers["bench.heavy_place_p90_ms"] = heavy.PlaceP90
		layers["bench.heavy_replay_p50_ms"] = heavy.ReplayP50
		layers["bench.heavy_release_p50_ms"] = heavy.ReleaseP50
		layers["bench.max_ok_rate"] = srv.MaxOKRate
		for _, l := range perLayer {
			v, ok := layers[l[0]]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[l[0]] = metric{v, l[1]}
		}
	} else {
		vals := map[string]float64{
			"setup_s": srv.SetupS, "peak_rss_mb": srv.PeakRSSMB,
			"sim_req_per_cpu_s": sim.ReqPerCPUS, "energy_mj": sim.EnergyMJ,
			"sla_met_pct": sim.SLAMetPct, "makespan_s": sim.MakespanS,
			"serve_cpu_us_per_op": srv.CPUUSPerOp,
			"ok_ratio":            1 - ratio(float64(srv.Failed), float64(srv.Attempted)),
		}
		if w.simFull {
			vals["setup_s"], vals["peak_rss_mb"] = sim.SetupS, simPeak
		}
		for _, mu := range e2eUnits {
			v := vals[mu[0]]
			if !(v > 0) || math.IsInf(v, 0) {
				failures = append(failures, fmt.Sprintf("metric %s = %v, want a positive number", mu[0], v))
				v = 0
			}
			res.Metrics[mu[0]] = metric{v, mu[1]}
		}
	}
	res.Correct = len(failures) == 0
	for _, f := range failures {
		fmt.Println("check failed:", f)
	}
	list := e2eUnits
	if o.trace == 1 {
		list = perLayer
	}
	for _, l := range list {
		fmt.Printf("%-36s %16.6g %s\n", l[0], res.Metrics[l[0]].Value, l[1])
	}
	return res, nil
}
