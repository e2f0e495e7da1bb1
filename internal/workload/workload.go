// Package workload defines the synthetic HPC benchmark suite standing in
// for the binaries the paper profiles (Sect. III.A): HPL Linpack and FFTW
// (CPU-intensive), sysbench (memory-intensive), b_eff_io and bonnie++
// (I/O-intensive), plus an MPI-style compute/communicate workload that is
// CPU- cum network-intensive (the right panel of Fig. 1).
//
// A Benchmark is a sequence of phases; each phase demands resources from
// one or more subsystems for a solo duration. "An application usually
// demands the services of a given subsystem in discrete time windows"
// (Sect. III.A) — phases are those windows. The hypervisor simulator
// (internal/vmm) stretches phases under contention; the profiler
// classifies benchmarks from their realized subsystem utilization.
//
// Demand units match hw.Spec capacities: CPU in cores, MEM in MiB/s of
// memory traffic, DISK in MiB/s, NET in Mb/s.
package workload

import (
	"fmt"

	"pacevm/internal/subsys"
	"pacevm/internal/units"
)

// Class is the paper's three-way application profile used as the model
// database key dimension: CPU-, memory-, or I/O-intensive (Table II keys
// Ncpu, Nmem, Nio).
type Class int

// The model classes, in the paper's canonical (Ncpu, Nmem, Nio) order.
const (
	ClassCPU Class = iota
	ClassMEM
	ClassIO
	classCount
)

// NumClasses is the number of model classes.
const NumClasses = int(classCount)

// Classes lists the model classes in canonical order.
var Classes = [NumClasses]Class{ClassCPU, ClassMEM, ClassIO}

func (c Class) String() string {
	switch c {
	case ClassCPU:
		return "cpu"
	case ClassMEM:
		return "mem"
	case ClassIO:
		return "io"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Valid reports whether c is one of the three model classes.
func (c Class) Valid() bool { return c >= 0 && c < classCount }

// Phase is one demand window of a benchmark.
type Phase struct {
	// Name labels the phase in profiling output ("init", "compute", ...).
	Name string
	// Dur is how long the phase runs when the VM has the whole server to
	// itself (solo). Under contention the hypervisor stretches it.
	Dur units.Seconds
	// Demand is the resource draw during the phase, per VM.
	Demand subsys.Vector
}

// Benchmark is a synthetic HPC workload.
type Benchmark struct {
	// Name is the benchmark's identity ("hpl", "fftw", ...).
	Name string
	// Class is the model class the benchmark represents.
	Class Class
	// Footprint is the VM's resident memory while the benchmark runs;
	// when the sum of co-located footprints exceeds the server's usable
	// RAM the hypervisor applies a thrashing penalty.
	Footprint units.MiB
	// Phases run in order; the benchmark completes when the last ends.
	Phases []Phase
}

// SoloTime is the benchmark's execution time on an otherwise idle server,
// ignoring virtualization overhead: the sum of solo phase durations.
func (b Benchmark) SoloTime() units.Seconds {
	var t units.Seconds
	for _, p := range b.Phases {
		t += p.Dur
	}
	return t
}

// AvgDemand is the solo-duration-weighted mean demand vector. The
// profiler's X-intensive classification thresholds apply to this (Sect.
// III.A: "if the average demand for a subsystem X is significant, we
// consider the application to be X-intensive").
func (b Benchmark) AvgDemand() subsys.Vector {
	var acc subsys.Vector
	var total units.Seconds
	for _, p := range b.Phases {
		acc = acc.Add(p.Demand.Scale(float64(p.Dur)))
		total += p.Dur
	}
	if total <= 0 {
		return subsys.Vector{}
	}
	return acc.Scale(1 / float64(total))
}

// Validate checks structural invariants.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("workload: benchmark with empty name")
	}
	if !b.Class.Valid() {
		return fmt.Errorf("workload: %s has invalid class %d", b.Name, int(b.Class))
	}
	if b.Footprint <= 0 {
		return fmt.Errorf("workload: %s has non-positive footprint", b.Name)
	}
	if len(b.Phases) == 0 {
		return fmt.Errorf("workload: %s has no phases", b.Name)
	}
	for i, p := range b.Phases {
		if p.Dur <= 0 {
			return fmt.Errorf("workload: %s phase %d (%s) has non-positive duration", b.Name, i, p.Name)
		}
		if !p.Demand.NonNegative() {
			return fmt.Errorf("workload: %s phase %d (%s) has negative demand", b.Name, i, p.Name)
		}
		if p.Demand.IsZero() {
			return fmt.Errorf("workload: %s phase %d (%s) demands nothing", b.Name, i, p.Name)
		}
	}
	return nil
}
