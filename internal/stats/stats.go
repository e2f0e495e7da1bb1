// Package stats provides the summary statistics used by the experiment
// harness: means, correlation and relative-change helpers for
// comparing strategies the way the paper reports them ("saves around 12%
// of energy consumption on average", "up to 18% shorter execution
// times").
package stats

import (
	"fmt"
	"math"
)

// SavingPct reports how much smaller got is than baseline, in percent:
// positive means an improvement (got < baseline). A zero baseline yields
// zero.
func SavingPct(baseline, got float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - got) / baseline
}

// Pearson returns the Pearson correlation coefficient of two paired
// samples. It panics on mismatched lengths or fewer than two points, and
// returns 0 when either sample has zero variance (correlation is
// undefined there; 0 is the conservative report).
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Pearson with %d vs %d points", len(xs), len(ys)))
	}
	if len(xs) < 2 {
		panic("stats: Pearson needs at least two points")
	}
	id := func(x float64) float64 { return x }
	mx, my := MeanOf(xs, id), MeanOf(ys, id)
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

// MeanOf maps a slice through f and averages the result; it returns 0 for
// an empty slice.
func MeanOf[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += f(x)
	}
	return sum / float64(len(xs))
}
