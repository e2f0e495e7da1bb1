package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestSavingPct(t *testing.T) {
	if got := SavingPct(100, 88); got != 12 {
		t.Errorf("SavingPct = %v, want 12", got)
	}
	if got := SavingPct(100, 118); got != -18 {
		t.Errorf("SavingPct = %v, want -18", got)
	}
	if got := SavingPct(0, 5); got != 0 {
		t.Errorf("SavingPct on zero baseline = %v", got)
	}
}

func TestMeanOf(t *testing.T) {
	type pair struct{ a, b float64 }
	xs := []pair{{1, 10}, {3, 20}}
	if got := MeanOf(xs, func(p pair) float64 { return p.a }); got != 2 {
		t.Errorf("MeanOf = %v", got)
	}
	if got := MeanOf(nil, func(p pair) float64 { return p.a }); got != 0 {
		t.Errorf("MeanOf empty = %v", got)
	}
}

func TestMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) && math.Abs(r) < 1e12 {
				xs = append(xs, r)
			}
		}
		if len(xs) == 0 {
			return true
		}
		mean := MeanOf(xs, func(x float64) float64 { return x })
		return mean >= slices.Min(xs)-1e-9 && mean <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Pearson(xs, []float64{2, 4, 6, 8, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive correlation = %v", got)
	}
	if got := Pearson(xs, []float64{10, 8, 6, 4, 2}); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative correlation = %v", got)
	}
	if got := Pearson(xs, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("zero-variance correlation = %v, want 0", got)
	}
	// A textbook dataset: r of (1,2,3) vs (1,3,2) is 0.5.
	if got := Pearson([]float64{1, 2, 3}, []float64{1, 3, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("r = %v, want 0.5", got)
	}
}

func TestPearsonPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Pearson([]float64{1}, []float64{1, 2}) },
		func() { Pearson([]float64{1}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPearsonBoundedProperty(t *testing.T) {
	f := func(raw [6]int16) bool {
		xs := make([]float64, 3)
		ys := make([]float64, 3)
		for i := 0; i < 3; i++ {
			xs[i], ys[i] = float64(raw[i]), float64(raw[i+3])
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
