package power

import (
	"math"
	"testing"
	"testing/quick"

	"pacevm/internal/rng"
	"pacevm/internal/subsys"
	"pacevm/internal/units"
	"pacevm/internal/vmm"
	"pacevm/internal/workload"
)

func constTimeline(p units.Watts, dur units.Seconds) []vmm.Interval {
	return []vmm.Interval{{Start: 0, End: dur, Power: p, Util: subsys.Vector{}}}
}

func TestIdealMeterConstantPower(t *testing.T) {
	got, samples := measureBoth(t, 1, 0, noNoise, constTimeline(125, 60))
	if !units.NearlyEqual(float64(got.Energy), 7500, 1e-9) {
		t.Errorf("energy = %v, want 7500J", got.Energy)
	}
	if got.MaxPower != 125 {
		t.Errorf("max power = %v", got.MaxPower)
	}
	if len(samples) != 60 {
		t.Errorf("samples = %d, want 60", len(samples))
	}
}

func TestPartialFinalWindow(t *testing.T) {
	got, samples := measureBoth(t, 1, 0, noNoise, constTimeline(100, 10.5))
	if !units.NearlyEqual(float64(got.Energy), 1050, 1e-9) {
		t.Errorf("energy = %v, want 1050J", got.Energy)
	}
	if len(samples) != 11 {
		t.Errorf("samples = %d, want 11", len(samples))
	}
}

func TestStepTimelineAveragedWithinWindow(t *testing.T) {
	// 0.5s at 100W then 0.5s at 200W inside one window: sample = 150W.
	tl := []vmm.Interval{
		{Start: 0, End: 0.5, Power: 100},
		{Start: 0.5, End: 1, Power: 200},
	}
	got, samples := measureBoth(t, 1, 0, noNoise, tl)
	if len(samples) != 1 || math.Abs(float64(samples[0].W-150)) > 1e-9 {
		t.Fatalf("samples = %+v, want one 150W sample", samples)
	}
	if math.Abs(float64(got.MaxPower-150)) > 1e-9 {
		t.Errorf("max power = %v, want 150W", got.MaxPower)
	}
}

// TestNonContiguousTimelineMatchesOracle feeds timelines with gaps and
// with an interval that starts before the previous one ends, where a
// window inside one interval's span may still miss part of it or pick
// up energy from the next: Measure must take the general scan there
// and agree with the oracle.
func TestNonContiguousTimelineMatchesOracle(t *testing.T) {
	timelines := [][]vmm.Interval{
		{
			{Start: 0, End: 4, Power: 100},
			{Start: 1.5, End: 3, Power: 50},
			{Start: 3, End: 3, Power: 70},
			{Start: 2.5, End: 7.25, Power: 80},
		},
		{
			{Start: 2, End: 5, Power: 100},
			{Start: 6.5, End: 9, Power: 60},
			{Start: 9, End: 12.1, Power: 90},
		},
	}
	for _, tl := range timelines {
		for _, interval := range []units.Seconds{0.5, 1, 1.3, 10} {
			measureBoth(t, interval, 0, noNoise, tl)
			measureBoth(t, interval, 0.015, 3, tl)
		}
	}
}

// wattsUp is a meter with the paper's instrument characteristics: 1 Hz
// sampling, ±1.5 % accuracy.
func wattsUp(noise *rng.Stream) *Meter {
	return &Meter{Interval: 1, Accuracy: 0.015, Noise: noise}
}

func TestEmptyTimeline(t *testing.T) {
	got, samples := measureBoth(t, 1, 0.015, noNoise, nil)
	if got != (Measurement{}) || len(samples) != 0 {
		t.Errorf("empty timeline measurement = %+v, %d samples", got, len(samples))
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := (&Meter{Interval: 0}).Measure(constTimeline(1, 1)); err == nil {
		t.Error("zero interval should fail")
	}
	if _, err := (&Meter{Interval: 1, Accuracy: 1.5}).Measure(constTimeline(1, 1)); err == nil {
		t.Error("accuracy >= 1 should fail")
	}
	if _, err := (&Meter{Interval: 1, Accuracy: -0.1}).Measure(constTimeline(1, 1)); err == nil {
		t.Error("negative accuracy should fail")
	}
	for _, iv := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := (&Meter{Interval: units.Seconds(iv)}).Measure(constTimeline(1, 1)); err == nil {
			t.Errorf("interval %v should fail", iv)
		}
	}
	if _, err := (&Meter{Interval: 1, Accuracy: math.NaN(), Noise: rng.New(1)}).Measure(constTimeline(1, 1)); err == nil {
		t.Error("NaN accuracy should fail")
	}
	// Past about 2^-13 s, adding 1e-20 s no longer moves a window start.
	if _, err := (&Meter{Interval: 1e-20}).Measure(constTimeline(1, 1e6)); err == nil {
		t.Error("interval below the resolution of the window starts should fail")
	}
}

// TestWindowRun pins the run helper's fallbacks: the first window, a
// tie, a window reaching the binade top and a width of zero all take
// the per-window step.
func TestWindowRun(t *testing.T) {
	tie := 1 + units.Seconds(math.Ldexp(1, -45)) // a tie in [256, 512)
	for _, c := range []struct {
		start, interval, limit units.Seconds
		n                      int64
		d                      units.Seconds
	}{
		{0, 1, 100, 0, 0},
		{1, 1, 100, 0, 0},        // 1+1 reaches the top of [1, 2)
		{2, 1, 100, 1, 1},        // 3+1 reaches the top of [2, 4)
		{64, 1, 100, 36, 1},      // stops at the limit
		{64, 1, 1000, 63, 1},     // stops a spacing short of 128
		{128, tie, 200, 71, tie}, // 1 + 2^-45 is exact below 256
		{256, tie, 300, 0, 0},
		{300, 1e-20, 400, 0, 0},
	} {
		n, d := windowRun(c.start, c.interval, c.limit)
		if n != c.n || d != c.d {
			t.Errorf("windowRun(%v, %v, %v) = %d, %v; want %d, %v", c.start, c.interval, c.limit, n, d, c.n, c.d)
		}
	}
}

// TestAddRepeatedMatchesLoop checks the closed-form repeated sum against
// the loop it replaces, bit for bit, across binades of the sum, with
// terms that tie, terms below half a spacing and zero terms.
func TestAddRepeatedMatchesLoop(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 3000; i++ {
		s := units.Joules(math.Ldexp(1+r.Float64(), int(r.Intn(60))-20))
		if i%7 == 0 {
			s = 0
		}
		tt := units.Joules(math.Ldexp(1+r.Float64(), int(r.Intn(60))-30))
		switch i % 5 {
		case 1: // a tie in s's binade: a whole number of spacings plus half of one
			_, exp := math.Frexp(float64(s))
			v := math.Ldexp(1, exp-53)
			tt = units.Joules(math.Ldexp(float64(r.Intn(1<<20)), exp-53) + v/2)
		case 2:
			tt = 0
		}
		n := int64(r.Intn(5000))
		want := s
		for j := int64(0); j < n; j++ {
			want += tt
		}
		if got := addRepeated(s, tt, n); math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("addRepeated(%v, %v, %d) = %v, loop = %v", float64(s), float64(tt), n, float64(got), float64(want))
		}
	}
}

// TestMeasureMatchesOracleOnCampaignGrid meters every experiment of the
// full campaign grid (1 to 16 VMs of the three classes) at 1 s, at the
// makespan/4000 interval the campaign widens long runs to, and at two
// non-integer intervals, plus once with noise at the campaign's own
// interval, and compares each result with the oracle bit for bit.
func TestMeasureMatchesOracleOnCampaignGrid(t *testing.T) {
	cfg := vmm.DefaultConfig()
	var buf vmm.Buffer
	runs := 0
	for c := 0; c <= 16; c++ {
		for m := 0; m <= 16-c; m++ {
			for i := 0; i <= 16-c-m; i++ {
				if c+m+i == 0 {
					continue
				}
				res, err := buf.Run(cfg, vmm.Mix(c, m, i))
				if err != nil {
					t.Fatal(err)
				}
				span := res.Makespan()
				for _, interval := range []units.Seconds{1, span / 4000, 1.37, span / 2718.28} {
					measureBoth(t, interval, 0, noNoise, res.Timeline)
				}
				measureBoth(t, max(1, span/4000), 0.015, int64(runs), res.Timeline)
				runs++
			}
		}
	}
	if runs != 968 {
		t.Fatalf("metered %d experiments, want the full grid's 968", runs)
	}
}

func TestNoiseWithinAccuracy(t *testing.T) {
	got, samples := measureBoth(t, 1, 0.015, 42, constTimeline(200, 300))
	for _, s := range samples {
		if s.W < 200*(1-0.015)-1e-9 || s.W > 200*(1+0.015)+1e-9 {
			t.Fatalf("sample %v outside ±1.5%% of 200W", s.W)
		}
	}
	// Energy estimate should be within the accuracy bound of truth.
	if math.Abs(float64(got.Energy)-60000) > 0.015*60000 {
		t.Errorf("noisy energy %v too far from 60kJ", got.Energy)
	}
}

func TestMeterDeterministicWithSeed(t *testing.T) {
	a, _ := wattsUp(rng.New(7)).Measure(constTimeline(150, 100))
	b, _ := wattsUp(rng.New(7)).Measure(constTimeline(150, 100))
	if a.Energy != b.Energy {
		t.Error("meter noise not reproducible from seed")
	}
}

func TestMeasureRealRunCloseToExact(t *testing.T) {
	res, err := vmm.Run(vmm.DefaultConfig(), vmm.Mix(2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	ideal := &Meter{Interval: 1, Accuracy: 0}
	got, err := ideal.Measure(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(float64(got.Energy), float64(res.Energy()), 1e-6) {
		t.Errorf("ideal 1Hz meter energy %v vs exact %v", got.Energy, res.Energy())
	}
}

func TestEnergyConservationProperty(t *testing.T) {
	// For any benchmark and replica count, the ideal meter's energy must
	// match exact integration.
	f := func(which uint8, nRaw uint8) bool {
		all := workload.All()
		b := all[int(which)%len(all)]
		n := int(nRaw%6) + 1
		res, err := vmm.Run(vmm.DefaultConfig(), vmm.Replicate(b, n))
		if err != nil {
			return false
		}
		got, err := (&Meter{Interval: 1}).Measure(res.Timeline)
		if err != nil {
			return false
		}
		return units.NearlyEqual(float64(got.Energy), float64(res.Energy()), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSampleTimesMonotone(t *testing.T) {
	res, _ := vmm.Run(vmm.DefaultConfig(), vmm.Replicate(workload.FFTW(), 3))
	_, samples := measureBoth(t, 1, 0.015, 1, res.Timeline)
	for i := 1; i < len(samples); i++ {
		if samples[i].At <= samples[i-1].At {
			t.Fatal("sample times not strictly increasing")
		}
	}
}

// BenchmarkMeasure meters one 12-VM mixed run the way the campaign
// does: noise-free, at the interval that yields 4000 windows.
func BenchmarkMeasure(b *testing.B) {
	res, err := vmm.Run(vmm.DefaultConfig(), vmm.Mix(4, 4, 4))
	if err != nil {
		b.Fatal(err)
	}
	m := &Meter{Interval: res.Makespan() / 4000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Measure(res.Timeline); err != nil {
			b.Fatal(err)
		}
	}
}
