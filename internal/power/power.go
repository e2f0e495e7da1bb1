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
// only their integral and maximum are.
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
			winEnd := start + m.Interval
			if winEnd > end {
				winEnd = end
			}
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
			start += m.Interval
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
