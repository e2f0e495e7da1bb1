package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"
)

// The host's speed drifts by tens of percent over minutes: the vCPUs are
// shared, and neighbours' load moves cache and memory bandwidth and clock
// speed, which CPU time feels as much as wall time does. A fixed probe
// of the benchmark's own code (never the program's, so a change to the
// program cannot move it), run in bursts between the measured pieces of
// work, tracks that drift; time metrics are reported scaled to a host
// on which one burst takes probeRef. Measured on a 2-vCPU shared host,
// scaling by the median of interleaved bursts cut the spread of 15 s
// windows of simulation CPU time from 0.15 to 0.04 (IQR over median).

// probeRef is the nominal duration of one probe burst, the reference the
// scaled metrics are expressed in.
const probeRef = 50 * time.Millisecond

// probeSink keeps the probe's work observable.
var probeSink float64

// probeBurst runs one burst of fixed work, a mix of sorting, map updates,
// float math and small allocations like the simulator's and the
// service's, and returns the CPU time and wall time it took.
func probeBurst() (cpu, wall time.Duration) {
	c0, t0 := cpuTime(), time.Now()
	rng := rand.New(rand.NewPCG(1, 2))
	m := map[int]float64{}
	xs := make([]float64, 1<<15)
	for r := 0; r < 8; r++ {
		for i := range xs {
			xs[i] = rng.Float64()
		}
		slices.Sort(xs)
		for i := 0; i < 20_000; i++ {
			m[rng.IntN(50_000)] += math.Log1p(xs[i%len(xs)])
		}
		small := make([][]int, 2000)
		for i := range small {
			small[i] = make([]int, 1+i%16)
		}
		probeSink += float64(len(small))
	}
	for _, v := range m {
		probeSink += v
	}
	return cpuTime() - c0, time.Since(t0)
}

// probes collects the bursts of one part.
type probes struct{ cpu, wall []float64 }

// run runs n bursts.
func (p *probes) run(n int) {
	for i := 0; i < n; i++ {
		c, w := probeBurst()
		p.cpu = append(p.cpu, c.Seconds())
		p.wall = append(p.wall, w.Seconds())
	}
}

// cpuScale and wallScale turn a measured CPU or wall time into reference
// time: a host running slow by a factor takes that factor longer for a
// burst, and its measured times are divided by it.
func (p *probes) cpuScale() float64  { return probeRef.Seconds() / median(p.cpu) }
func (p *probes) wallScale() float64 { return probeRef.Seconds() / median(p.wall) }
