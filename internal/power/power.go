// Package power emulates the paper's wall-plug instrumentation: a
// "Watts Up? .NET" power meter with an accuracy of 1.5 % of the measured
// power and a sampling rate of 1 Hz, mounted between the outlet and the
// server (Sect. III.B). The paper estimates consumed energy "by
// integrating the actual power measures over time"; Meter.Measure does
// the same over a simulated run's power timeline.
package power

import (
	"fmt"
	"math"

	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/vmm"
)

// Meter models a sampling wall-power meter.
type Meter struct {
	// Interval is the sampling period (1 s for the Watts Up? .NET).
	Interval units.Seconds
	// Accuracy is the meter's relative error bound; each sample is
	// perturbed by a uniform multiplicative error in ±Accuracy.
	Accuracy float64
	// Noise drives the sampling error. A nil Noise yields an ideal
	// (noise-free) meter, useful in tests.
	Noise *rng.Stream
}

// Measurement is the meter's view of a run.
type Measurement struct {
	// Energy is the integral of the sampled power over the run.
	Energy units.Joules
	// MaxPower is the largest sample observed (Table II's MaxPower).
	MaxPower units.Watts
}

// Measure samples the power of a piecewise-constant timeline, applying
// the meter's sampling period and accuracy, and integrates the samples
// into an energy estimate. Each sample reports the mean true power over
// its sampling window (the Watts Up? averages internally at 1 Hz), times
// a uniform error in ±Accuracy. The samples themselves are not kept:
// only their integral and maximum are. A noise-free meter takes each run
// of identical windows inside one interval in a single exact step (see
// windowRun and addRepeated), so its cost follows the timeline's
// intervals rather than its window count. An interval below the
// resolution of the window start times, where a window would have no
// width, is an error.
func (m *Meter) Measure(timeline []vmm.Interval) (Measurement, error) {
	if !(m.Interval > 0) || math.IsInf(float64(m.Interval), 1) {
		return Measurement{}, fmt.Errorf("power: sampling interval %v not positive and finite", m.Interval)
	}
	if !(m.Accuracy >= 0 && m.Accuracy < 1) {
		return Measurement{}, fmt.Errorf("power: accuracy %v out of [0,1)", m.Accuracy)
	}
	if len(timeline) == 0 {
		return Measurement{}, nil
	}
	end := timeline[len(timeline)-1].End
	var out Measurement

	noisy := m.Noise != nil && m.Accuracy > 0
	idx := 0
	for start := units.Seconds(0); start < end; {
		// start < end, the last interval's End, so this stops in range.
		for timeline[idx].End <= start {
			idx++
		}
		iv := &timeline[idx]
		// A window that starts at or after iv.Start and ends by iv.End,
		// when the next interval starts no earlier than iv ends, holds
		// iv alone: its energy is the one term the general scan would
		// add, iv's power over the window. Such windows are sampled in
		// a run, which ends at the first window that is not one or once
		// a window starts at iv.End, so idx is always the first interval
		// ending after the window's start.
		whole := iv.Start <= start && (idx+1 == len(timeline) || timeline[idx+1].Start >= iv.End)
		for {
			if whole && !noisy {
				// The next n windows have one width and lie inside iv:
				// each yields the same sample, computed as the
				// per-window step below computes it, and adds the same
				// term.
				if n, d := windowRun(start, m.Interval, min(end, iv.End)); n > 0 {
					var e units.Joules
					e += iv.Power.Times(d)
					w := units.EnergyOver(e, d)
					out.Energy = addRepeated(out.Energy, w.Times(d), n)
					if w > out.MaxPower {
						out.MaxPower = w
					}
					start += units.Seconds(n) * d
					if !(start < end) || !(start < iv.End) {
						break
					}
				}
			}
			next := start + m.Interval
			if !(next > start) {
				return Measurement{}, fmt.Errorf("power: sampling interval %v below the resolution of time %v", m.Interval, start)
			}
			winEnd := min(next, end)
			inside := whole && winEnd <= iv.End
			var e units.Joules
			if inside {
				e += iv.Power.Times(winEnd - start)
			} else {
				e = windowEnergy(timeline[idx:], start, winEnd)
			}
			// Mean true power across [start, winEnd), with the meter's
			// error.
			w := units.EnergyOver(e, winEnd-start)
			if noisy {
				w *= units.Watts(1 + m.Noise.Uniform(-m.Accuracy, m.Accuracy))
			}
			out.Energy += w.Times(winEnd - start)
			if w > out.MaxPower {
				out.MaxPower = w
			}
			start = next
			if !inside || !(start < end) || !(start < iv.End) {
				break
			}
		}
	}
	return out, nil
}

// windowEnergy integrates the true power over [start, winEnd) from the
// intervals of timeline that start before winEnd, in timeline order.
func windowEnergy(timeline []vmm.Interval, start, winEnd units.Seconds) units.Joules {
	var e units.Joules
	for j := 0; j < len(timeline) && timeline[j].Start < winEnd; j++ {
		lo, hi := timeline[j].Start, timeline[j].End
		if lo < start {
			lo = start
		}
		if hi > winEnd {
			hi = winEnd
		}
		if hi > lo {
			e += timeline[j].Power.Times(hi - lo)
		}
	}
	return e
}

// windowRun returns how many consecutive windows from start the meter
// may take as one, and their common width d. While the window start s
// stays in one binade [2^k, 2^(k+1)), whose spacing is u, fl(s+interval)
// lands on s+d for one fixed d, unless interval−d is exactly u/2 (a tie,
// which rounds to even and so alternates) or s+interval rounds into the
// next binade. The run therefore stops at the last window that ends by
// limit and one spacing short of the binade top; every value it
// computes is a multiple of u below 2^(k+1), so all of it is exact. It
// returns n = 0 where that reasoning does not hold: the first window
// (start 0), ties, a width of zero, and windows that reach the top.
func windowRun(start, interval, limit units.Seconds) (int64, units.Seconds) {
	s := float64(start)
	top, u, ok := binade(s)
	next := s + float64(interval)
	if !ok || !(next < top) {
		return 0, 0
	}
	d := next - s
	if d == 0 || math.Abs(float64(interval)-d) == u/2 {
		return 0, 0
	}
	lim := min(float64(limit), top-u)
	return int64((lim-s)/u) / int64(d/u), units.Seconds(d)
}

// addRepeated returns sum after n steps of sum += t, bit for bit. While
// sum stays in one binade [2^m, 2^(m+1)) with spacing v, each step adds
// the same δ = fl(sum+t) − sum, unless t−δ is exactly v/2 (a tie) or the
// step reaches the binade top; so the steps up to the top are taken in
// one multiplication, exact because every value is a multiple of v below
// 2^(m+1). Ties, steps across a binade top and sums outside the normal
// range take one step at a time.
func addRepeated(sum, t units.Joules, n int64) units.Joules {
	for n > 0 {
		s := float64(sum)
		next := s + float64(t)
		n--
		if t == 0 {
			// Adding a zero again changes nothing.
			return units.Joules(next)
		}
		sum = units.Joules(next)
		if n == 0 || !(t > 0) {
			continue
		}
		top, v, ok := binade(s)
		delta := next - s
		if !ok || !(next < top) || math.Abs(float64(t)-delta) == v/2 {
			continue
		}
		if delta == 0 {
			// t is below half a spacing: the sum never moves again.
			return sum
		}
		k := min(n, (int64((top-next)/v)-1)/int64(delta/v))
		sum = units.Joules(next + float64(k)*delta)
		n -= k
	}
	return sum
}

// binade returns the top 2^(k+1) of the binade [2^k, 2^(k+1)) that holds
// x and the spacing 2^(k-52) of the float64s in it. It reports false
// for x outside [2^-960, 2^960), where the spacing or the top would not
// be a normal float64; the callers then step one window or one sum at
// a time.
func binade(x float64) (top, spacing float64, ok bool) {
	if !(x >= 0x1p-960 && x < 0x1p960) {
		return 0, 0, false
	}
	e := math.Float64bits(x) >> 52
	return math.Float64frombits((e + 1) << 52), math.Float64frombits((e - 52) << 52), true
}
