package workload

import (
	"math"
	"testing"

	"pacevm/internal/hw"
	"pacevm/internal/subsys"
	"pacevm/internal/units"
)

func TestCatalogValid(t *testing.T) {
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("fftw")
	if err != nil || b.Name != "fftw" {
		t.Fatalf("ByName(fftw) = %v, %v", b.Name, err)
	}
	if _, err := ByName("no-such"); err == nil {
		t.Fatal("ByName should fail for unknown benchmark")
	}
}

func TestRepresentatives(t *testing.T) {
	for _, c := range Classes {
		b := Representative(c)
		if b.Class != c {
			t.Errorf("Representative(%v) has class %v", c, b.Class)
		}
	}
}

func TestRepresentativePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Representative(99) should panic")
		}
	}()
	Representative(Class(99))
}

func TestClassString(t *testing.T) {
	cases := []struct {
		c    Class
		want string
	}{{ClassCPU, "cpu"}, {ClassMEM, "mem"}, {ClassIO, "io"}, {Class(7), "class(7)"}}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.c), got, c.want)
		}
	}
}

func TestSoloTime(t *testing.T) {
	for _, b := range []Benchmark{HPL(), FFTW(), Sysbench(), Bonnie()} {
		if got := b.SoloTime(); got != 600 {
			t.Errorf("%s solo time = %v, want 600s (common reference length)", b.Name, got)
		}
	}
}

func TestAvgDemandWeighted(t *testing.T) {
	b := Benchmark{
		Name: "x", Class: ClassCPU, Footprint: 1,
		Phases: []Phase{
			{Name: "a", Dur: 100, Demand: subsys.V(1, 0, 0, 0)},
			{Name: "b", Dur: 300, Demand: subsys.V(0, 1, 0, 0)},
		},
	}
	avg := b.AvgDemand()
	if math.Abs(avg[subsys.CPU]-0.25) > 1e-9 || math.Abs(avg[subsys.MEM]-0.75) > 1e-9 {
		t.Errorf("AvgDemand = %v", avg)
	}
}

func TestAvgDemandEmpty(t *testing.T) {
	var b Benchmark
	if got := b.AvgDemand(); !got.IsZero() {
		t.Errorf("empty benchmark AvgDemand = %v, want zero", got)
	}
}

func TestValidateRejects(t *testing.T) {
	ok := HPL()
	cases := []struct {
		name   string
		mutate func(*Benchmark)
	}{
		{"empty name", func(b *Benchmark) { b.Name = "" }},
		{"bad class", func(b *Benchmark) { b.Class = Class(9) }},
		{"zero footprint", func(b *Benchmark) { b.Footprint = 0 }},
		{"no phases", func(b *Benchmark) { b.Phases = nil }},
		{"zero duration phase", func(b *Benchmark) { b.Phases[0].Dur = 0 }},
		{"negative demand", func(b *Benchmark) { b.Phases[0].Demand[0] = -1 }},
		{"all-zero demand", func(b *Benchmark) { b.Phases[0].Demand = subsys.Vector{} }},
	}
	for _, c := range cases {
		b := ok
		b.Phases = append([]Phase(nil), ok.Phases...)
		c.mutate(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a bad benchmark", c.name)
		}
	}
}

// TestCalibrationSaturationPoints pins the co-location saturation points
// the catalog is calibrated for (DESIGN.md §4): these drive the paper's
// base-test optima (Fig. 2, Table I).
func TestCalibrationSaturationPoints(t *testing.T) {
	spec := hw.X3220()
	sat := func(b Benchmark, id subsys.ID, phase string) float64 {
		for _, p := range b.Phases {
			if p.Name == phase {
				return spec.Capacity.Get(id) / p.Demand.Get(id)
			}
		}
		t.Fatalf("%s has no phase %q", b.Name, phase)
		return 0
	}
	cases := []struct {
		b        Benchmark
		id       subsys.ID
		phase    string
		lo, hi   float64
		whatever string
	}{
		{FFTW(), subsys.CPU, "transform", 8.5, 9.5, "paper optimum 9 VMs"},
		{HPL(), subsys.CPU, "factorize", 4.0, 4.6, "CPU-bound, ~4 VMs"},
		{Sysbench(), subsys.MEM, "oltp", 2.8, 3.6, "memory-bandwidth bound"},
		{Bonnie(), subsys.DISK, "readwrite", 2.3, 3.1, "disk bound"},
	}
	for _, c := range cases {
		got := sat(c.b, c.id, c.phase)
		if got < c.lo || got > c.hi {
			t.Errorf("%s %v saturation at %.2f VMs, want [%.1f,%.1f] (%s)",
				c.b.Name, c.id, got, c.lo, c.hi, c.whatever)
		}
	}
}

// TestCalibrationRAMKnees pins where memory overcommit begins: FFTW must
// fit 11 co-located VMs but not 12 (the paper's ">11 increases
// significantly" knee).
func TestCalibrationRAMKnees(t *testing.T) {
	usable := hw.X3220().UsableRAM()
	fftw := FFTW()
	if units.MiB(11)*fftw.Footprint > usable {
		t.Errorf("11 FFTW VMs (%v) should fit in %v", units.MiB(11)*fftw.Footprint, usable)
	}
	if units.MiB(12)*fftw.Footprint <= usable {
		t.Errorf("12 FFTW VMs (%v) should overcommit %v", units.MiB(12)*fftw.Footprint, usable)
	}
}

func TestMPINetIsNetworkHeavy(t *testing.T) {
	b := MPINet()
	avg := b.AvgDemand()
	spec := hw.X3220()
	netUtil := avg[subsys.NET] / spec.Capacity[subsys.NET]
	cpuUtil := avg[subsys.CPU] / spec.Capacity[subsys.CPU]
	if netUtil < 0.05 {
		t.Errorf("mpinet avg net util = %v, want clearly network-active", netUtil)
	}
	if cpuUtil < 0.1 {
		t.Errorf("mpinet avg cpu util = %v, want clearly CPU-active", cpuUtil)
	}
}
