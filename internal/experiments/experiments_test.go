package experiments

import (
	"math"
	"sync"
	"testing"

	"pacevm/internal/stats"
	"pacevm/internal/subsys"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

var (
	ctxOnce sync.Once
	testCtx *Context
	ctxErr  error
)

// quickCtx builds one Quick-scale context (shared across the package) and
// memoizes its evaluation.
func quickCtx(t *testing.T) *Context {
	t.Helper()
	ctxOnce.Do(func() {
		testCtx, ctxErr = NewContext(Quick())
	})
	if ctxErr != nil {
		t.Fatal(ctxErr)
	}
	return testCtx
}

func evalOf(t *testing.T) []EvalResult {
	t.Helper()
	res, err := quickCtx(t).Evaluation()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func metric(t *testing.T, name string, cloud CloudName) EvalResult {
	t.Helper()
	r, err := Find(evalOf(t), name, cloud)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	bad := Quick()
	bad.SmallServers = 0
	if _, err := NewContext(bad); err == nil {
		t.Error("zero servers should fail")
	}
	bad = Quick()
	bad.LargeServers = bad.SmallServers - 1
	if _, err := NewContext(bad); err == nil {
		t.Error("LARGER smaller than SMALLER should fail")
	}
	bad = Quick()
	bad.TargetVMs = 0
	if _, err := NewContext(bad); err == nil {
		t.Error("zero VMs should fail")
	}
}

func TestFig1Profiles(t *testing.T) {
	res, err := quickCtx(t).Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// Left panel: CPU-intensive only.
	if !res.CPUOnly.Intensive[subsys.CPU] {
		t.Error("left workload not CPU-intensive")
	}
	if res.CPUOnly.Intensive[subsys.NET] {
		t.Error("left workload should not be network-intensive")
	}
	// Right panel: CPU- cum network-intensive.
	if !res.CPUNet.Intensive[subsys.CPU] || !res.CPUNet.Intensive[subsys.NET] {
		t.Errorf("right workload labels = %v, want cpu+net", res.CPUNet.Labels())
	}
	if len(res.CPUOnly.Series) == 0 || len(res.CPUNet.Series) == 0 {
		t.Error("empty utilization series")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := quickCtx(t).Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bench != "fftw" {
		t.Fatalf("Fig2 ran %q", res.Bench)
	}
	if res.OSP < 8 || res.OSP > 10 {
		t.Errorf("FFTW optimum = %d VMs, want 8-10 (paper: 9)", res.OSP)
	}
	best := res.Points[res.OSP-1].AvgTimeVM
	if res.Points[11].AvgTimeVM < units.Seconds(1.5)*best {
		t.Errorf("no degradation past 11 VMs: %v vs %v", res.Points[11].AvgTimeVM, best)
	}
}

func TestTableI(t *testing.T) {
	rows := quickCtx(t).TableI()
	if len(rows) != workload.NumClasses {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OSP < 1 || r.OSE < 1 || r.RefTime <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.OSP == 1 && r.OSE == 1 {
			t.Errorf("%v: no consolidation benefit at all", r.Class)
		}
	}
}

func TestTableIIGridComplete(t *testing.T) {
	db := quickCtx(t).TableII()
	if db.Len() < 900 {
		t.Errorf("full-grid DB has %d records, want the 968-cell grid", db.Len())
	}
}

// TestFig4ExactPaperNumbers pins the worked example from Sect. IV.A.
func TestFig4ExactPaperNumbers(t *testing.T) {
	res, err := quickCtx(t).Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTimeVM1 != 1380 {
		t.Errorf("ExecTime_VM1 = %v, want 1380 s", res.ExecTimeVM1)
	}
	if res.Energy != 14250 {
		t.Errorf("Energy = %v, want 14.25 kJ", res.Energy)
	}
}

func TestWorkloadTargetsPaperScale(t *testing.T) {
	reqs, rep, err := quickCtx(t).Workload()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalVMs < Quick().TargetVMs {
		t.Errorf("trace provides %d VMs, want >= %d", rep.TotalVMs, Quick().TargetVMs)
	}
	if len(reqs) == 0 {
		t.Fatal("no requests")
	}
	for _, c := range workload.Classes {
		if rep.JobsByClass[c] == 0 {
			t.Errorf("class %v unused", c)
		}
	}
}

func TestEvaluationCoversAllCells(t *testing.T) {
	res := evalOf(t)
	if len(res) != len(StrategyNames)*2 {
		t.Fatalf("results = %d, want %d", len(res), len(StrategyNames)*2)
	}
	for _, name := range StrategyNames {
		for _, cloud := range []CloudName{Smaller, Larger} {
			if _, err := Find(res, name, cloud); err != nil {
				t.Error(err)
			}
		}
	}
	if _, err := Find(res, "nope", Smaller); err == nil {
		t.Error("Find should fail for unknown strategy")
	}
}

// TestFig5MakespanShape asserts the paper's Fig.-5 relations: PROACTIVE
// shortens execution times versus the first-fit family, FF-3 suffers the
// most contention, and the SMALLER (more loaded) cloud is slower.
func TestFig5MakespanShape(t *testing.T) {
	for _, cloud := range []CloudName{Smaller, Larger} {
		ff := metric(t, "FF", cloud).Metrics
		ff3 := metric(t, "FF-3", cloud).Metrics
		for _, pa := range []string{"PA-1", "PA-0", "PA-0.5"} {
			m := metric(t, pa, cloud).Metrics
			if m.Makespan >= ff.Makespan {
				t.Errorf("%s/%s makespan %v not below FF %v", pa, cloud, m.Makespan, ff.Makespan)
			}
		}
		if ff3.Makespan <= ff.Makespan {
			t.Errorf("%s: FF-3 (%v) should be slower than FF (%v) — contention", cloud, ff3.Makespan, ff.Makespan)
		}
	}
	for _, name := range StrategyNames {
		small := metric(t, name, Smaller).Metrics
		large := metric(t, name, Larger).Metrics
		if small.Makespan < large.Makespan {
			t.Errorf("%s: SMALLER makespan %v below LARGER %v", name, small.Makespan, large.Makespan)
		}
	}
}

// TestFig6EnergyShape asserts Fig. 6: PROACTIVE saves energy versus the
// first-fit family, with PA-1 (energy goal) the most frugal PA variant.
func TestFig6EnergyShape(t *testing.T) {
	for _, cloud := range []CloudName{Smaller, Larger} {
		ff := metric(t, "FF", cloud).Metrics
		pa1 := metric(t, "PA-1", cloud).Metrics
		pa0 := metric(t, "PA-0", cloud).Metrics
		for _, pa := range []string{"PA-1", "PA-0", "PA-0.5"} {
			m := metric(t, pa, cloud).Metrics
			if m.Energy >= ff.Energy {
				t.Errorf("%s/%s energy %v not below FF %v", pa, cloud, m.Energy, ff.Energy)
			}
		}
		if pa1.Energy > pa0.Energy {
			t.Errorf("%s: PA-1 energy %v above PA-0 %v — energy goal ineffective", cloud, pa1.Energy, pa0.Energy)
		}
	}
}

// TestFig7SLAShape asserts Fig. 7: PROACTIVE maintains or improves QoS,
// and violations correlate with makespan (higher load, more misses).
func TestFig7SLAShape(t *testing.T) {
	for _, cloud := range []CloudName{Smaller, Larger} {
		ff := metric(t, "FF", cloud).Metrics
		for _, pa := range []string{"PA-1", "PA-0", "PA-0.5"} {
			m := metric(t, pa, cloud).Metrics
			if m.SLAViolationPct() >= ff.SLAViolationPct() {
				t.Errorf("%s/%s SLA %v%% not below FF %v%%", pa, cloud, m.SLAViolationPct(), ff.SLAViolationPct())
			}
		}
	}
	// Correlation: for each strategy, the more loaded cloud violates at
	// least as much.
	for _, name := range StrategyNames {
		small := metric(t, name, Smaller).Metrics
		large := metric(t, name, Larger).Metrics
		if small.SLAViolationPct() < large.SLAViolationPct()-1e-9 {
			t.Errorf("%s: SMALLER SLA %v%% below LARGER %v%%", name, small.SLAViolationPct(), large.SLAViolationPct())
		}
	}
}

// TestHeadlineBands asserts the paper's headline magnitudes hold to
// within reproduction tolerance: double-digit makespan savings against
// first-fit (paper: up to 18 %) and an energy saving against FF in the
// paper's ~12 % ballpark.
func TestHeadlineBands(t *testing.T) {
	for _, cloud := range []CloudName{Smaller, Larger} {
		h, err := ComputeHeadlines(evalOf(t), cloud)
		if err != nil {
			t.Fatal(err)
		}
		if h.MakespanSavingVsFFPct < 10 {
			t.Errorf("%s: makespan saving vs FF = %.1f%%, want >= 10%% (paper: up to 18%%)", cloud, h.MakespanSavingVsFFPct)
		}
		if h.EnergySavingVsFFPct < 5 || h.EnergySavingVsFFPct > 25 {
			t.Errorf("%s: energy saving vs FF = %.1f%%, want 5-25%% (paper: ~12%%)", cloud, h.EnergySavingVsFFPct)
		}
		if h.PA1VsPA0EnergyPct < 0 {
			t.Errorf("%s: PA-1 uses more energy than PA-0 (%.1f%%)", cloud, h.PA1VsPA0EnergyPct)
		}
		if h.SLAReductionPct <= 0 {
			t.Errorf("%s: PROACTIVE does not reduce SLA violations (%.1f)", cloud, h.SLAReductionPct)
		}
	}
}

func TestComputeHeadlinesErrors(t *testing.T) {
	if _, err := ComputeHeadlines(nil, Smaller); err == nil {
		t.Error("empty results should fail")
	}
}

func TestEvaluationCached(t *testing.T) {
	c := quickCtx(t)
	a, err := c.Evaluation()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Evaluation()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("evaluation not cached on the context")
	}
}

// TestExtendedBaselines checks the beyond-paper dynamic baseline: FF
// with reactive migration actually migrates, saves energy over plain FF,
// and still loses to the proactive strategies — the paper's motivation
// for placing proactively instead of fixing placements after the fact.
func TestExtendedBaselines(t *testing.T) {
	ext, err := quickCtx(t).Extended()
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != len(ExtendedNames)*2 {
		t.Fatalf("extended results = %d", len(ext))
	}
	for _, cloud := range []CloudName{Smaller, Larger} {
		ffmig, err := Find(ext, "FF+MIG", cloud)
		if err != nil {
			t.Fatal(err)
		}
		if ffmig.Metrics.Migrations == 0 {
			t.Errorf("%s: FF+MIG never migrated", cloud)
		}
		ff := metric(t, "FF", cloud).Metrics
		if ffmig.Metrics.Energy >= ff.Energy {
			t.Errorf("%s: FF+MIG energy %v not below FF %v", cloud, ffmig.Metrics.Energy, ff.Energy)
		}
		pa1 := metric(t, "PA-1", cloud).Metrics
		if pa1.Energy >= ffmig.Metrics.Energy {
			t.Errorf("%s: proactive PA-1 (%v) should still beat reactive FF+MIG (%v)",
				cloud, pa1.Energy, ffmig.Metrics.Energy)
		}
	}
}

func TestStrategiesMatchPaperList(t *testing.T) {
	sts, err := quickCtx(t).Strategies()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != len(StrategyNames) {
		t.Fatalf("%d strategies", len(sts))
	}
	for i, s := range sts {
		if s.Name() != StrategyNames[i] {
			t.Errorf("strategy %d = %s, want %s", i, s.Name(), StrategyNames[i])
		}
	}
}

func TestAlphaSweepModerateImpact(t *testing.T) {
	// The paper: intermediate α values (e.g. 0.75) did not vary enough
	// to plot. The sweep's makespan and energy spreads must stay small
	// relative to the PA-vs-FF gap.
	points, err := quickCtx(t).AlphaSweep([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	var minE, maxE, minM, maxM float64
	for i, p := range points {
		e, m := float64(p.Metrics.Energy), float64(p.Metrics.Makespan)
		if i == 0 {
			minE, maxE, minM, maxM = e, e, m, m
			continue
		}
		minE, maxE = min(minE, e), max(maxE, e)
		minM, maxM = min(minM, m), max(maxM, m)
	}
	if spread := (maxE - minE) / minE; spread > 0.10 {
		t.Errorf("energy spread across α = %.1f%%, want moderate (<10%%)", 100*spread)
	}
	if spread := (maxM - minM) / minM; spread > 0.10 {
		t.Errorf("makespan spread across α = %.1f%%, want moderate (<10%%)", 100*spread)
	}
}

// TestMakespanSLACorrelation quantifies the paper's Fig.-7 observation
// of "a correlation between execution time and SLA violations": across
// all evaluated strategy × cloud cells, makespan and SLA violation rate
// must be strongly positively correlated.
func TestMakespanSLACorrelation(t *testing.T) {
	res := evalOf(t)
	var makespans, slas []float64
	for _, r := range res {
		makespans = append(makespans, float64(r.Metrics.Makespan))
		slas = append(slas, r.Metrics.SLAViolationPct())
	}
	if r := pearson(makespans, slas); r < 0.5 {
		t.Errorf("makespan-SLA correlation r = %.2f, want strongly positive (paper Fig. 7)", r)
	}
}

// pearson returns the Pearson correlation coefficient of two paired
// samples of equal length, or 0 when either has zero variance.
func pearson(xs, ys []float64) float64 {
	id := func(x float64) float64 { return x }
	mx, my := stats.MeanOf(xs, id), stats.MeanOf(ys, id)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
