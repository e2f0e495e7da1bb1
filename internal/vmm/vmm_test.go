package vmm

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pacevm/internal/subsys"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

func TestSoloRunNearNominal(t *testing.T) {
	cfg := DefaultConfig()
	for _, b := range workload.All() {
		res, err := Run(cfg, []workload.Benchmark{b})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want := float64(b.SoloTime()) * (1 + cfg.BaseOverhead)
		got := float64(res.Completion[0])
		if !units.NearlyEqual(got, want, 1e-6) {
			t.Errorf("%s solo completion = %v, want %v", b.Name, got, want)
		}
	}
}

func TestErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Run(cfg, nil); err == nil {
		t.Error("empty VM set should fail")
	}
	if _, err := Run(cfg, Replicate(workload.HPL(), cfg.Spec.MaxVMs+1)); err == nil {
		t.Error("exceeding MaxVMs should fail")
	}
	bad := workload.HPL()
	bad.Phases = nil
	if _, err := Run(cfg, []workload.Benchmark{bad}); err == nil {
		t.Error("invalid benchmark should fail")
	}
	badCfg := cfg
	badCfg.BaseOverhead = -1
	if _, err := Run(badCfg, []workload.Benchmark{workload.HPL()}); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestTimelineContiguousAndComplete(t *testing.T) {
	res, err := Run(DefaultConfig(), Mix(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	if res.Timeline[0].Start != 0 {
		t.Errorf("timeline starts at %v", res.Timeline[0].Start)
	}
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Start != res.Timeline[i-1].End {
			t.Fatalf("gap between intervals %d and %d", i-1, i)
		}
		if res.Timeline[i].End < res.Timeline[i].Start {
			t.Fatalf("interval %d runs backwards", i)
		}
	}
	last := res.Timeline[len(res.Timeline)-1].End
	if !units.NearlyEqual(float64(last), float64(res.Makespan()), 1e-9) {
		t.Errorf("timeline ends at %v, makespan %v", last, res.Makespan())
	}
}

func TestContentionSlowsDown(t *testing.T) {
	cfg := DefaultConfig()
	solo, err := Run(cfg, Replicate(workload.HPL(), 1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Run(cfg, Replicate(workload.HPL(), 8))
	if err != nil {
		t.Fatal(err)
	}
	// 8 HPL VMs demand ~7.6 cores on 4: roughly 2x dilation (plus
	// overhead and thrash).
	ratio := float64(eight.Makespan()) / float64(solo.Makespan())
	if ratio < 1.5 {
		t.Errorf("8-way HPL dilation = %.2fx, want clear contention", ratio)
	}
}

func TestNoContentionBelowSaturation(t *testing.T) {
	cfg := DefaultConfig()
	// 3 HPL VMs demand 2.85 cores of 4 — no contention, only overhead.
	res, err := Run(cfg, Replicate(workload.HPL(), 3))
	if err != nil {
		t.Fatal(err)
	}
	want := 600 * (1 + cfg.BaseOverhead + 2*cfg.PerVMOverhead)
	if !units.NearlyEqual(float64(res.Makespan()), want, 1e-6) {
		t.Errorf("3-way HPL makespan = %v, want %v", res.Makespan(), want)
	}
}

func TestFFTWBaseCurveShape(t *testing.T) {
	// The paper's Fig. 2: avg execution time per VM is minimized around 9
	// co-located FFTW VMs and degrades sharply past 11.
	cfg := DefaultConfig()
	avg := make([]float64, 17)
	for n := 1; n <= 16; n++ {
		res, err := Run(cfg, Replicate(workload.FFTW(), n))
		if err != nil {
			t.Fatal(err)
		}
		avg[n] = float64(res.AvgTimePerVM())
	}
	best, bestN := math.Inf(1), 0
	for n := 1; n <= 16; n++ {
		if avg[n] < best {
			best, bestN = avg[n], n
		}
	}
	if bestN < 8 || bestN > 10 {
		t.Errorf("FFTW optimum at %d VMs (avg %v), want 8-10 (paper: 9); curve=%v", bestN, best, avg[1:])
	}
	if avg[12] < 1.5*best {
		t.Errorf("12-way avg %v should clearly exceed optimum %v (paper knee >11)", avg[12], best)
	}
	if avg[14] < 3*best {
		t.Errorf("14-way avg %v should collapse vs optimum %v", avg[14], best)
	}
}

func TestEnergyGrowsWithLoad(t *testing.T) {
	cfg := DefaultConfig()
	e1, _ := Run(cfg, Replicate(workload.Bonnie(), 1))
	e4, _ := Run(cfg, Replicate(workload.Bonnie(), 4))
	if e4.Energy() <= e1.Energy() {
		t.Errorf("4-way energy %v <= solo energy %v", e4.Energy(), e1.Energy())
	}
	// But per-VM energy should shrink: consolidation amortizes idle power.
	if e4.Energy()/4 >= e1.Energy() {
		t.Errorf("per-VM energy did not improve under consolidation: %v vs %v", e4.Energy()/4, e1.Energy())
	}
}

func TestMaxPowerWithinSpec(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, Mix(4, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPower() > cfg.Spec.MaxPower() {
		t.Errorf("max power %v exceeds spec ceiling %v", res.MaxPower(), cfg.Spec.MaxPower())
	}
	if res.MaxPower() <= cfg.Spec.IdlePower {
		t.Errorf("max power %v not above idle %v", res.MaxPower(), cfg.Spec.IdlePower)
	}
}

func TestEnergyEqualsIntegralProperty(t *testing.T) {
	f := func(nc, nm, ni uint8) bool {
		c, m, i := int(nc%4), int(nm%4), int(ni%4)
		if c+m+i == 0 {
			return true
		}
		res, err := Run(DefaultConfig(), Mix(c, m, i))
		if err != nil {
			return false
		}
		var sum units.Joules
		for _, iv := range res.Timeline {
			sum += iv.Power.Times(iv.Dur())
		}
		return units.NearlyEqual(float64(sum), float64(res.Energy()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCompletionsAllPositiveAndBounded(t *testing.T) {
	f := func(nc, nm, ni uint8) bool {
		c, m, i := int(nc%5), int(nm%5), int(ni%5)
		if c+m+i == 0 {
			return true
		}
		res, err := Run(DefaultConfig(), Mix(c, m, i))
		if err != nil {
			return false
		}
		for _, t := range res.Completion {
			if t <= 0 || t > res.Makespan() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUtilizationWithinBounds(t *testing.T) {
	res, err := Run(DefaultConfig(), Mix(5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range res.Timeline {
		for s, u := range iv.Util {
			if u < 0 || u > 1 {
				t.Fatalf("utilization %v out of [0,1] for %v", u, subsys.All[s])
			}
		}
	}
}

func TestThrashingPenalty(t *testing.T) {
	cfg := DefaultConfig()
	// 12 HPL VMs (3360 MiB) fit in the 3584 MiB of usable RAM; 14
	// (3920 MiB) overcommit and must pay a clear thrashing penalty on
	// top of the CPU contention both levels share.
	twelve, err := Run(cfg, Replicate(workload.HPL(), 12))
	if err != nil {
		t.Fatal(err)
	}
	fourteen, err := Run(cfg, Replicate(workload.HPL(), 14))
	if err != nil {
		t.Fatal(err)
	}
	perVM12 := float64(twelve.Makespan()) / 12
	perVM14 := float64(fourteen.Makespan()) / 14
	if perVM14 < 1.5*perVM12 {
		t.Errorf("thrash knee missing: avg(14)=%v vs avg(12)=%v", perVM14, perVM12)
	}
}

func TestMixHelpers(t *testing.T) {
	m := Mix(2, 1, 3)
	if len(m) != 6 {
		t.Fatalf("Mix len = %d", len(m))
	}
	counts := map[workload.Class]int{}
	for _, b := range m {
		counts[b.Class]++
	}
	if counts[workload.ClassCPU] != 2 || counts[workload.ClassMEM] != 1 || counts[workload.ClassIO] != 3 {
		t.Errorf("Mix composition = %v", counts)
	}
	if len(Replicate(workload.HPL(), 0)) != 0 {
		t.Error("Replicate(0) should be empty")
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Run(DefaultConfig(), Mix(3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(DefaultConfig(), Mix(3, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Completion {
		if a.Completion[i] != b.Completion[i] {
			t.Fatalf("nondeterministic completion for VM %d", i)
		}
	}
	if a.Energy() != b.Energy() {
		t.Error("nondeterministic energy")
	}
}

// TestMixOrder pins Mix's layout: the CPU, MEM and IO representatives,
// each replicated, in that order.
func TestMixOrder(t *testing.T) {
	var want []workload.Benchmark
	want = append(want, Replicate(workload.Representative(workload.ClassCPU), 2)...)
	want = append(want, Replicate(workload.Representative(workload.ClassMEM), 0)...)
	want = append(want, Replicate(workload.Representative(workload.ClassIO), 3)...)
	if got := Mix(2, 0, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("Mix(2, 0, 3) = %v, want %v", got, want)
	}
}

// TestBufferMatchesRun runs mixes of different sizes on one Buffer and
// checks each result against a fresh Run, so nothing of a previous
// experiment leaks into the next.
func TestBufferMatchesRun(t *testing.T) {
	cfg := DefaultConfig()
	var buf Buffer
	for _, k := range [][3]int{{4, 4, 4}, {1, 0, 0}, {0, 3, 2}, {6, 5, 5}, {0, 0, 1}} {
		mix := Mix(k[0], k[1], k[2])
		want, err := Run(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		got, err := buf.Run(cfg, mix)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mix %v: Buffer.Run differs from Run", k)
		}
	}
}

// TestBufferRunAllocs pins the reuse: once a Buffer has held a run of
// some size, a run of that size allocates nothing.
func TestBufferRunAllocs(t *testing.T) {
	cfg := DefaultConfig()
	mix := Mix(4, 4, 4)
	var buf Buffer
	if _, err := buf.Run(cfg, mix); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := buf.Run(cfg, mix); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Buffer.Run allocates %v times per run, want 0", n)
	}
}

// MaxPower is the paper's "MaxPower" column: the peak instantaneous power
// observed.
func (r Result) MaxPower() units.Watts {
	var p units.Watts
	for _, iv := range r.Timeline {
		if iv.Power > p {
			p = iv.Power
		}
	}
	return p
}
