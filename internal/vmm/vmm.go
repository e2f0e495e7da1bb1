// Package vmm simulates a Xen-like hypervisor hosting a set of VMs on one
// physical server. It is the microscopic engine behind the paper's
// empirical benchmarking (Sect. III.B): given co-located benchmark VMs it
// produces per-VM completion times and a piecewise-constant timeline of
// server utilization and power, from which the campaign derives the model
// database and the profiler derives Fig.-1-style traces.
//
// # Contention model
//
// At any instant each resident VM is in one phase of its benchmark,
// demanding a resource vector. The hypervisor grants each subsystem
// proportionally when aggregate demand exceeds capacity (Xen's credit
// scheduler approximates proportional fair sharing for CPU; streaming
// devices behave similarly under saturation):
//
//	grant_s = min(1, capacity_s / Σ demand_s) / (1 + q·(D_s/C_s − 1))
//
// where the second factor (active only under oversubscription, q =
// Config.SatPenalty) models the throughput lost to context switching and
// cache pollution as oversubscription deepens. A VM progresses at the
// minimum grant across the subsystems it uses — a phase that needs both
// CPU and disk runs at the pace of its most contended resource. Two
// further penalties apply:
//
//   - virtualization overhead: progress is divided by
//     1 + base + perVM·(residents−1), modelling hypervisor scheduling
//     and world-switch costs that grow with consolidation;
//   - memory-overcommit thrashing: when resident footprints exceed the
//     server's usable RAM by fraction `over`, progress is divided by
//     1 + thrashLin·over + thrashQuad·over², the superlinear collapse
//     responsible for the paper's ">11 FFTW VMs degrades significantly"
//     knee (Fig. 2).
//
// The simulation is event-driven over phase boundaries, so a run costs
// O(totalPhases · residents) regardless of the virtual durations.
package vmm

import (
	"fmt"
	"math"
	"slices"

	"pacevm/internal/hw"
	"pacevm/internal/subsys"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// Config parameterizes the hypervisor simulation.
type Config struct {
	Spec hw.Spec

	// BaseOverhead is the fixed fractional virtualization cost paid by
	// any guest (domU vs bare metal).
	BaseOverhead float64
	// PerVMOverhead is the additional fractional cost per co-resident VM
	// beyond the first.
	PerVMOverhead float64

	// ThrashLin and ThrashQuad shape the memory-overcommit penalty.
	ThrashLin  float64
	ThrashQuad float64

	// SatPenalty is the scheduling-inefficiency coefficient applied when
	// a subsystem is oversubscribed: at aggregate demand D > capacity C
	// the effective grant is (C/D) / (1 + SatPenalty·(D/C − 1)). It
	// models the throughput the credit scheduler loses to context
	// switches and cache pollution as oversubscription deepens — without
	// it, fair sharing would make consolidation look free right up to
	// the RAM wall, flattening the paper's Fig.-2 optimum.
	SatPenalty float64
}

// DefaultConfig returns the calibrated configuration used throughout the
// reproduction (see DESIGN.md §4).
func DefaultConfig() Config {
	return Config{
		Spec:          hw.X3220(),
		BaseOverhead:  0.02,
		PerVMOverhead: 0.015,
		ThrashLin:     20,
		ThrashQuad:    8,
		SatPenalty:    0.35,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if c.BaseOverhead < 0 || c.PerVMOverhead < 0 {
		return fmt.Errorf("vmm: negative virtualization overhead")
	}
	if c.ThrashLin < 0 || c.ThrashQuad < 0 {
		return fmt.Errorf("vmm: negative thrash coefficients")
	}
	if c.SatPenalty < 0 {
		return fmt.Errorf("vmm: negative saturation penalty")
	}
	return nil
}

// Interval is one piecewise-constant segment of the run timeline.
type Interval struct {
	Start, End units.Seconds
	// Util is the realized per-subsystem utilization (granted demand
	// over capacity), each component in [0,1].
	Util subsys.Vector
	// Power is the wall power during the interval.
	Power units.Watts
}

// Dur returns the interval length.
func (iv Interval) Dur() units.Seconds { return iv.End - iv.Start }

// Result is the outcome of a co-location run.
type Result struct {
	// Completion holds each VM's completion time, indexed as the input
	// benchmark slice.
	Completion []units.Seconds
	// Timeline is the utilization/power history from t=0 to the last
	// completion, with no gaps.
	Timeline []Interval
}

// Makespan is the paper's "Time" column (Table II): the completion time
// of the last VM in the batch.
func (r Result) Makespan() units.Seconds {
	var m units.Seconds
	for _, c := range r.Completion {
		if c > m {
			m = c
		}
	}
	return m
}

// AvgTimePerVM is the paper's headline metric (Sect. III.A): the ratio of
// the maximum execution time of the batch to the number of VMs, capturing
// the gain of multiplexing VMs over running them sequentially.
func (r Result) AvgTimePerVM() units.Seconds {
	if len(r.Completion) == 0 {
		return 0
	}
	return r.Makespan() / units.Seconds(len(r.Completion))
}

// Energy integrates power exactly over the timeline (the emulated meter
// in internal/power re-measures it with sampling noise, as the Watts Up?
// meter did).
func (r Result) Energy() units.Joules {
	var e units.Joules
	for _, iv := range r.Timeline {
		e += iv.Power.Times(iv.Dur())
	}
	return e
}

// vmState tracks one resident VM's progress.
type vmState struct {
	bench     workload.Benchmark
	phase     int
	remaining units.Seconds // solo-seconds left in current phase
	done      bool
}

func (v *vmState) demand() subsys.Vector { return v.bench.Phases[v.phase].Demand }

// Run executes the given benchmark VMs co-located on one server, all
// starting at t=0 (the campaign's experimental protocol).
func Run(cfg Config, benches []workload.Benchmark) (Result, error) {
	var buf Buffer
	return buf.Run(cfg, benches)
}

// Buffer is Run's working storage: the VM states, speeds, completions
// and timeline. A caller that runs many experiments in sequence keeps
// one Buffer and calls its Run, which reuses that storage instead of
// allocating it again. The zero Buffer is ready to use; a Buffer is not
// safe for concurrent use.
type Buffer struct {
	states     []vmState
	speeds     []float64
	completion []units.Seconds
	timeline   []Interval
}

// Run is the package-level Run over the buffer's storage. The Result it
// returns aliases the buffer and is valid until the buffer's next Run.
func (buf *Buffer) Run(cfg Config, benches []workload.Benchmark) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(benches) == 0 {
		return Result{}, fmt.Errorf("vmm: no VMs to run")
	}
	if len(benches) > cfg.Spec.MaxVMs {
		return Result{}, fmt.Errorf("vmm: %d VMs exceed the server's admission limit of %d", len(benches), cfg.Spec.MaxVMs)
	}
	n := len(benches)
	states := slices.Grow(buf.states[:0], n)[:n]
	buf.states = states
	for i, b := range benches {
		if err := b.Validate(); err != nil {
			return Result{}, fmt.Errorf("vmm: VM %d: %w", i, err)
		}
		states[i] = vmState{bench: b, remaining: b.Phases[0].Dur}
	}
	speeds := slices.Grow(buf.speeds[:0], n)[:n]
	buf.speeds = speeds
	res := Result{Completion: slices.Grow(buf.completion[:0], n)[:n], Timeline: buf.timeline[:0]}
	buf.completion = res.Completion
	clear(res.Completion)
	var now units.Seconds
	// An upper bound on loop iterations: every iteration retires at least
	// one phase of one VM.
	maxIters := 0
	for _, b := range benches {
		maxIters += len(b.Phases)
	}
	maxIters++

	for iter := 0; iter <= maxIters; iter++ {
		// Gather resident demand and footprint.
		var demand subsys.Vector
		var footprint units.MiB
		residents := 0
		for i := range states {
			if states[i].done {
				continue
			}
			residents++
			demand = demand.Add(states[i].demand())
			footprint += states[i].bench.Footprint
		}
		if residents == 0 {
			buf.timeline = res.Timeline
			return res, nil
		}

		slow := slowdown(cfg, residents, footprint)

		// Per-subsystem grant factors.
		var grant subsys.Vector
		for s := range grant {
			if demand[s] <= cfg.Spec.Capacity[s] {
				grant[s] = 1
			} else {
				ratio := demand[s] / cfg.Spec.Capacity[s]
				grant[s] = (1 / ratio) / (1 + cfg.SatPenalty*(ratio-1))
			}
		}

		// Per-VM speeds and the time to the next phase boundary.
		dt := units.Seconds(math.Inf(1))
		for i := range states {
			if states[i].done {
				continue
			}
			sp := 1.0
			d := states[i].demand()
			for s := range d {
				if d[s] > 0 && grant[s] < sp {
					sp = grant[s]
				}
			}
			sp /= slow
			speeds[i] = sp
			if need := states[i].remaining / units.Seconds(sp); need < dt {
				dt = need
			}
		}
		if math.IsInf(float64(dt), 1) || dt < 0 {
			return Result{}, fmt.Errorf("vmm: simulation stalled at t=%v", now)
		}

		// Record the interval.
		util := cfg.Spec.Utilization(demand)
		res.Timeline = append(res.Timeline, Interval{
			Start: now,
			End:   now + dt,
			Util:  util,
			Power: cfg.Spec.Power(util),
		})

		// Advance all VMs by dt.
		now += dt
		for i := range states {
			st := &states[i]
			if st.done {
				continue
			}
			st.remaining -= dt * units.Seconds(speeds[i])
			if st.remaining <= 1e-9 {
				st.phase++
				if st.phase >= len(st.bench.Phases) {
					st.done = true
					res.Completion[i] = now
				} else {
					st.remaining = st.bench.Phases[st.phase].Dur
				}
			}
		}
	}
	return Result{}, fmt.Errorf("vmm: exceeded iteration bound (%d); phase bookkeeping bug", maxIters)
}

// slowdown combines the virtualization-overhead and thrashing penalties
// for a resident set of the given size and footprint.
func slowdown(cfg Config, residents int, footprint units.MiB) float64 {
	ov := 1 + cfg.BaseOverhead + cfg.PerVMOverhead*float64(residents-1)
	usable := cfg.Spec.UsableRAM()
	if footprint > usable && usable > 0 {
		over := float64(footprint-usable) / float64(usable)
		ov *= 1 + cfg.ThrashLin*over + cfg.ThrashQuad*over*over
	}
	return ov
}

// Replicate returns n copies of a benchmark, the shape used by the
// campaign's base tests.
func Replicate(b workload.Benchmark, n int) []workload.Benchmark {
	out := make([]workload.Benchmark, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Mix builds the benchmark set for a combined test: nCPU, nMEM and nIO
// replicas of each class representative, in that order.
func Mix(nCPU, nMEM, nIO int) []workload.Benchmark {
	out := make([]workload.Benchmark, nCPU+nMEM+nIO)
	fill(out[:nCPU], workload.ClassCPU)
	fill(out[nCPU:nCPU+nMEM], workload.ClassMEM)
	fill(out[nCPU+nMEM:], workload.ClassIO)
	return out
}

// fill sets every element of dst to the class representative.
func fill(dst []workload.Benchmark, c workload.Class) {
	if len(dst) == 0 {
		return
	}
	b := workload.Representative(c)
	for i := range dst {
		dst[i] = b
	}
}
