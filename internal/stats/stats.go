// Package stats provides the summary statistics used by the experiment
// harness: mean and relative-change helpers for
// comparing strategies the way the paper reports them ("saves around 12%
// of energy consumption on average", "up to 18% shorter execution
// times").
package stats

// SavingPct reports how much smaller got is than baseline, in percent:
// positive means an improvement (got < baseline). A zero baseline yields
// zero.
func SavingPct(baseline, got float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - got) / baseline
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
