// Package campaign reproduces the paper's benchmarking methodology
// (Sect. III.B): base tests that co-locate growing numbers of same-type
// VMs to find the per-class optimal scenarios (Table I), followed by
// combined tests over mixes of workload types, all measured with the
// emulated power meter and collected into the model database of
// Sect. III.C. The physical campaign "took several days to be completed";
// against the simulated server it takes milliseconds, which lets the
// reproduction also build a full pricing grid covering every allocation
// the datacenter simulator can create.
package campaign

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"pacevm/internal/model"
	"pacevm/internal/power"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/vmm"
	"pacevm/internal/workload"
)

// Config parameterizes a campaign.
type Config struct {
	// VMM is the hypervisor/server configuration to benchmark.
	VMM vmm.Config

	// MaxBase is the largest same-type VM count exercised in base tests
	// (the paper ran "up to 16").
	MaxBase int

	// FullGridTotal, when positive, extends the combined tests to every
	// (Ncpu, Nmem, Nio) with 1 <= total <= FullGridTotal, instead of the
	// paper's reduced grid bounded by OSC/OSM/OSI. The datacenter
	// simulator needs this so first-fit multiplexing (up to 12 VMs per
	// server under FF-3) always hits an exact record.
	FullGridTotal int

	// MeterNoise seeds the emulated Watts Up? meter; nil measures
	// noise-free. MeterSamples caps how many samples the meter takes per
	// experiment (long thrashing runs would otherwise produce millions
	// of 1 Hz samples); the sampling interval widens accordingly but
	// never below 1 s.
	MeterNoise   *rng.Stream
	MeterSamples int

	// Workers sizes the pool the combined-test grid (and the per-class
	// base tests) fan out to. Zero defaults to runtime.NumCPU(); one
	// forces the serial path. Results are gathered and ordered by grid
	// key, so the produced database — and the model.csv written from it
	// — is byte-identical to a serial run. A non-nil MeterNoise forces
	// the serial path regardless: the noisy meter draws from one shared
	// stream, and only a fixed draw order reproduces the paper's
	// measured-noise runs.
	Workers int
}

// DefaultConfig returns the paper-faithful configuration over the
// calibrated simulator.
func DefaultConfig() Config {
	return Config{
		VMM:          vmm.DefaultConfig(),
		MaxBase:      16,
		MeterSamples: 4000,
	}
}

func (c Config) validate() error {
	if err := c.VMM.Validate(); err != nil {
		return err
	}
	if c.MaxBase < 1 || c.MaxBase > c.VMM.Spec.MaxVMs {
		return fmt.Errorf("campaign: MaxBase %d out of [1,%d]", c.MaxBase, c.VMM.Spec.MaxVMs)
	}
	if c.FullGridTotal > c.VMM.Spec.MaxVMs {
		return fmt.Errorf("campaign: FullGridTotal %d exceeds server admission limit %d", c.FullGridTotal, c.VMM.Spec.MaxVMs)
	}
	if c.MeterSamples < 0 {
		return fmt.Errorf("campaign: negative MeterSamples")
	}
	if c.Workers < 0 {
		return fmt.Errorf("campaign: negative Workers")
	}
	return nil
}

// workers resolves the effective pool size: MeterNoise shares one
// stream and pins the serial path, zero means one worker per CPU.
func (c Config) workers() int {
	if c.MeterNoise != nil {
		return 1
	}
	if c.Workers == 0 {
		return runtime.NumCPU()
	}
	return c.Workers
}

// BasePoint is one base-test outcome: n same-type VMs on one server.
type BasePoint struct {
	N           int
	AvgTimeVM   units.Seconds
	Energy      units.Joules
	PerVMEnergy units.Joules
	MaxPower    units.Watts
}

// BaseResult is the per-class outcome of the base tests: the Fig.-2 curve
// plus the Table I parameters.
type BaseResult struct {
	Bench string
	// Points holds outcomes for n = 1..MaxBase in order.
	Points []BasePoint
	// OSP is the VM count minimizing the average execution time per VM
	// (Table I's "#VMs that optimize performance").
	OSP int
	// OSE is the VM count minimizing per-VM energy (Table I's "#VMs that
	// optimize energy").
	OSE int
	// RefTime is the single-VM execution time (Table I's TC/TM/TI).
	RefTime units.Seconds
}

// OS is the class's combined bound, max(OSP, OSE) (Sect. III.B).
func (b BaseResult) OS() int {
	if b.OSP > b.OSE {
		return b.OSP
	}
	return b.OSE
}

// Summary describes a completed campaign.
type Summary struct {
	Base         [workload.NumClasses]BaseResult
	CombinedRuns int
}

// PaperCombinedCount is the paper's experiment-count formula for the
// reduced grid: (OSC+1)(OSM+1)(OSI+1) − (1+OSC+OSM+OSI), excluding the
// empty allocation and the base tests.
func PaperCombinedCount(osc, osm, osi int) int {
	return (osc+1)*(osm+1)*(osi+1) - (1 + osc + osm + osi)
}

// RunBase executes the base tests for one class: 1..MaxBase VMs of the
// class representative benchmark, measuring average execution time and
// energy at each count.
func RunBase(cfg Config, class workload.Class) (BaseResult, error) {
	return RunBaseBenchmark(cfg, workload.Representative(class))
}

// RunBaseBenchmark executes base tests for an explicit benchmark (used by
// the Fig.-2 experiment, which runs FFTW rather than the class
// representative).
func RunBaseBenchmark(cfg Config, bench workload.Benchmark) (BaseResult, error) {
	if err := cfg.validate(); err != nil {
		return BaseResult{}, err
	}
	res := BaseResult{Bench: bench.Name}
	bestT, bestE := math.Inf(1), math.Inf(1)
	var buf vmm.Buffer
	for n := 1; n <= cfg.MaxBase; n++ {
		out, meas, err := runOne(cfg, &buf, vmm.Replicate(bench, n))
		if err != nil {
			return BaseResult{}, fmt.Errorf("campaign: base %s n=%d: %w", bench.Name, n, err)
		}
		pt := BasePoint{
			N:           n,
			AvgTimeVM:   out.AvgTimePerVM(),
			Energy:      meas.Energy,
			PerVMEnergy: meas.Energy / units.Joules(n),
			MaxPower:    meas.MaxPower,
		}
		res.Points = append(res.Points, pt)
		if n == 1 {
			res.RefTime = out.Makespan()
		}
		if float64(pt.AvgTimeVM) < bestT {
			bestT, res.OSP = float64(pt.AvgTimeVM), n
		}
		if float64(pt.PerVMEnergy) < bestE {
			bestE, res.OSE = float64(pt.PerVMEnergy), n
		}
	}
	return res, nil
}

// Run executes the full campaign and returns the model database.
//
// The combined grid is the paper's reduced grid (bounded per class by
// OSC/OSM/OSI from the base tests) unless cfg.FullGridTotal is set, in
// which case every mix with total VM count up to that bound is measured.
// Base-test outcomes are stored in the database too ("the information
// collected from the benchmarking (base and combined tests) was stored
// in a database").
func Run(cfg Config) (*model.DB, Summary, error) {
	if err := cfg.validate(); err != nil {
		return nil, Summary{}, err
	}
	var sum Summary
	var aux model.Aux
	if err := runBases(cfg, &sum); err != nil {
		return nil, Summary{}, err
	}
	for _, class := range workload.Classes {
		aux.OSP[class] = sum.Base[class].OSP
		aux.OSE[class] = sum.Base[class].OSE
		aux.RefTime[class] = sum.Base[class].RefTime
	}

	keys := map[model.Key]bool{}
	// Base-test rows: pure-type allocations up to MaxBase.
	for _, class := range workload.Classes {
		for n := 1; n <= cfg.MaxBase; n++ {
			keys[model.KeyFor(class, n)] = true
		}
	}
	// Combined rows.
	if cfg.FullGridTotal > 0 {
		for c := 0; c <= cfg.FullGridTotal; c++ {
			for m := 0; m <= cfg.FullGridTotal-c; m++ {
				for i := 0; i <= cfg.FullGridTotal-c-m; i++ {
					k := model.Key{NCPU: c, NMEM: m, NIO: i}
					if k.IsZero() {
						continue
					}
					if !keys[k] {
						keys[k] = true
						sum.CombinedRuns++
					}
				}
			}
		}
	} else {
		osc := sum.Base[workload.ClassCPU].OS()
		osm := sum.Base[workload.ClassMEM].OS()
		osi := sum.Base[workload.ClassIO].OS()
		for c := 0; c <= osc; c++ {
			for m := 0; m <= osm; m++ {
				for i := 0; i <= osi; i++ {
					k := model.Key{NCPU: c, NMEM: m, NIO: i}
					// Genuinely combined experiments (at least two classes
					// present) are what the paper's count formula excludes
					// base tests and the empty allocation from.
					if mixed(k) {
						sum.CombinedRuns++
					}
					if !k.IsZero() {
						keys[k] = true
					}
				}
			}
		}
	}

	// Order the grid deterministically before fanning out: rows land at
	// fixed indices, so the record list (hence model.New's sorted CSV) is
	// byte-identical whatever the pool size — and identical to the
	// pre-parallel map-iteration code, which model.New already sorted.
	grid := make([]model.Key, 0, len(keys))
	for k := range keys {
		if k.Total() <= cfg.VMM.Spec.MaxVMs {
			grid = append(grid, k)
		}
	}
	sort.Slice(grid, func(i, j int) bool { return grid[i].Less(grid[j]) })

	recs, err := measureGrid(cfg, grid)
	if err != nil {
		return nil, Summary{}, err
	}

	db, err := model.New(recs, aux)
	if err != nil {
		return nil, Summary{}, err
	}
	return db, sum, nil
}

// LoadDB reads the model database a `pacevm-campaign -out dir` run
// wrote (model.csv and aux.csv). An empty dir builds it in-process
// instead: the default campaign with the full grid up to 16 VMs, which
// prices every allocation the default admission limit allows.
func LoadDB(dir string) (*model.DB, error) {
	if dir == "" {
		cfg := DefaultConfig()
		cfg.FullGridTotal = 16
		db, _, err := Run(cfg)
		return db, err
	}
	mf, err := os.Open(filepath.Join(dir, "model.csv"))
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	af, err := os.Open(filepath.Join(dir, "aux.csv"))
	if err != nil {
		return nil, err
	}
	defer af.Close()
	return model.ReadCSV(mf, af)
}

// runBases executes the three per-class base-test sweeps, concurrently
// when the configured pool allows it. Each class writes its own Summary
// slot, and the reported error is the first in canonical class order, so
// the outcome matches the serial loop exactly.
func runBases(cfg Config, sum *Summary) error {
	if cfg.workers() == 1 {
		for _, class := range workload.Classes {
			base, err := RunBase(cfg, class)
			if err != nil {
				return err
			}
			sum.Base[class] = base
		}
		return nil
	}
	var wg sync.WaitGroup
	var errs [workload.NumClasses]error
	for _, class := range workload.Classes {
		wg.Add(1)
		go func(class workload.Class) {
			defer wg.Done()
			sum.Base[class], errs[class] = RunBase(cfg, class)
		}(class)
	}
	wg.Wait()
	for _, class := range workload.Classes {
		if errs[class] != nil {
			return errs[class]
		}
	}
	return nil
}

// measureGrid measures every key of the (already sorted) grid and
// returns the records in grid order. Experiments are independent, so
// they fan out over cfg.workers() goroutines pulling indices from an
// atomic counter; each result lands at its key's fixed slot and the
// error reported is the one at the lowest index, making output and
// failure behavior identical to the serial loop. The serial loop and
// each worker run their experiments on one hypervisor buffer.
func measureGrid(cfg Config, grid []model.Key) ([]model.Record, error) {
	recs := make([]model.Record, len(grid))
	workers := cfg.workers()
	if workers > len(grid) {
		workers = len(grid)
	}
	if workers <= 1 {
		var buf vmm.Buffer
		for i, k := range grid {
			rec, err := measureMix(cfg, &buf, k)
			if err != nil {
				return nil, err
			}
			recs[i] = rec
		}
		return recs, nil
	}
	errs := make([]error, len(grid))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf vmm.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(grid) {
					return
				}
				recs[i], errs[i] = measureMix(cfg, &buf, grid[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

func mixed(k model.Key) bool {
	classes := 0
	for _, c := range workload.Classes {
		if k.Count(c) > 0 {
			classes++
		}
	}
	return classes >= 2
}

// MeasureMix runs one allocation experiment and converts it into a model
// record.
func MeasureMix(cfg Config, k model.Key) (model.Record, error) {
	var buf vmm.Buffer
	return measureMix(cfg, &buf, k)
}

// measureMix is MeasureMix running its experiment on buf.
func measureMix(cfg Config, buf *vmm.Buffer, k model.Key) (model.Record, error) {
	if !k.Valid() || k.IsZero() {
		return model.Record{}, fmt.Errorf("campaign: cannot measure key %v", k)
	}
	out, meas, err := runOne(cfg, buf, vmm.Mix(k.NCPU, k.NMEM, k.NIO))
	if err != nil {
		return model.Record{}, fmt.Errorf("campaign: mix %v: %w", k, err)
	}
	rec := model.Record{
		Key:       k,
		Time:      out.Makespan(),
		AvgTimeVM: out.Makespan() / units.Seconds(k.Total()),
		Energy:    meas.Energy,
		MaxPower:  meas.MaxPower,
		EDP:       units.EDP(meas.Energy, out.Makespan()),
	}
	// Per-class mean completion times: vmm.Mix orders VMs CPU, MEM, IO.
	idx := 0
	for _, class := range workload.Classes {
		n := k.Count(class)
		if n == 0 {
			continue
		}
		var sum units.Seconds
		for j := 0; j < n; j++ {
			sum += out.Completion[idx]
			idx++
		}
		rec.TimeByClass[class] = sum / units.Seconds(n)
	}
	return rec, nil
}

// runOne executes one experiment on buf and measures it with the
// configured meter, widening the sampling interval for very long runs so
// no single experiment exceeds MeterSamples samples. The returned Result
// aliases buf.
func runOne(cfg Config, buf *vmm.Buffer, benches []workload.Benchmark) (vmm.Result, power.Measurement, error) {
	out, err := buf.Run(cfg.VMM, benches)
	if err != nil {
		return vmm.Result{}, power.Measurement{}, err
	}
	interval := units.Seconds(1)
	if cfg.MeterSamples > 0 {
		if alt := out.Makespan() / units.Seconds(cfg.MeterSamples); alt > interval {
			interval = alt
		}
	}
	meter := &power.Meter{Interval: interval, Accuracy: 0.015, Noise: cfg.MeterNoise}
	if cfg.MeterNoise == nil {
		meter.Accuracy = 0
	}
	meas, err := meter.Measure(out.Timeline)
	if err != nil {
		return vmm.Result{}, power.Measurement{}, err
	}
	return out, meas, nil
}
