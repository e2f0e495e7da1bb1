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
