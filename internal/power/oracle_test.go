package power

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/vmm"
)

// refSample is one meter reading as the oracle keeps it.
type refSample struct {
	At units.Seconds
	W  units.Watts
}

// refMeasurement is the oracle's view of a run: the Measurement plus
// every per-window sample behind it.
type refMeasurement struct {
	Measurement
	Samples []refSample
}

// refMeasure is the straightforward meter: for every window it rescans
// the timeline from the first interval that ends after the window
// starts, and it keeps each sample. Measure must agree with it bit for
// bit, noise included, on every valid meter and timeline.
func refMeasure(m *Meter, timeline []vmm.Interval) (refMeasurement, error) {
	if m.Interval <= 0 {
		return refMeasurement{}, fmt.Errorf("power: non-positive sampling interval %v", m.Interval)
	}
	if m.Accuracy < 0 || m.Accuracy >= 1 {
		return refMeasurement{}, fmt.Errorf("power: accuracy %v out of [0,1)", m.Accuracy)
	}
	if len(timeline) == 0 {
		return refMeasurement{}, nil
	}
	end := timeline[len(timeline)-1].End
	var out refMeasurement

	idx := 0
	for start := units.Seconds(0); start < end; start += m.Interval {
		if start+m.Interval == start {
			return refMeasurement{}, fmt.Errorf("power: sampling interval %v below the resolution of time %v", m.Interval, start)
		}
		winEnd := start + m.Interval
		if winEnd > end {
			winEnd = end
		}
		var e units.Joules
		for idx < len(timeline) && timeline[idx].End <= start {
			idx++
		}
		for j := idx; j < len(timeline) && timeline[j].Start < winEnd; j++ {
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
		w := units.EnergyOver(e, winEnd-start)
		if m.Noise != nil && m.Accuracy > 0 {
			w *= units.Watts(1 + m.Noise.Uniform(-m.Accuracy, m.Accuracy))
		}
		out.Samples = append(out.Samples, refSample{At: start, W: w})
		out.Energy += w.Times(winEnd - start)
		if w > out.MaxPower {
			out.MaxPower = w
		}
	}
	return out, nil
}

// noNoise passed as a seed to measureBoth measures noise-free.
const noNoise = -1

// measureBoth measures timeline with Measure and with the oracle, each
// meter drawing from its own stream seeded alike (seed noNoise for none),
// and fails unless Energy, MaxPower and Duration agree bit for bit. It
// returns Measure's result and the oracle's samples.
func measureBoth(t *testing.T, interval units.Seconds, accuracy float64, seed int64, timeline []vmm.Interval) (Measurement, []refSample) {
	t.Helper()
	meter := func() *Meter {
		m := &Meter{Interval: interval, Accuracy: accuracy}
		if seed != noNoise {
			m.Noise = rng.New(uint64(seed))
		}
		return m
	}
	got, err := meter().Measure(timeline)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMeasure(meter(), timeline)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want.Measurement) {
		t.Fatalf("Measure = %+v, oracle = %+v (interval %v, accuracy %v, seed %d)",
			got, want.Measurement, interval, accuracy, seed)
	}
	return got, want.Samples
}

func sameBits(a, b Measurement) bool {
	return math.Float64bits(float64(a.Energy)) == math.Float64bits(float64(b.Energy)) &&
		math.Float64bits(float64(a.MaxPower)) == math.Float64bits(float64(b.MaxPower))
}

// FuzzMeasure checks Measure against the oracle on random contiguous
// piecewise-constant timelines. Each byte pair of data is one interval:
// the first byte its width (below 128, tenths of a second, zero-width
// intervals included; from 128, multiples of 40 s up to 5120 s), the
// second its power. Intervals stop once the timeline passes 2^15 s.
// The low two bits of ival pick the sampling interval: a non-integer
// number of seconds between 0.25 s and about 16.6 s, like the widened
// intervals the campaign uses for long runs; a whole number of seconds;
// or a whole number plus 2^-e, which rounds as a tie in the binade of
// start times [2^(53-e), 2^(54-e)). Long intervals hold runs of
// identical windows across binades of the window start and of the
// energy sum, which Measure takes in one step. Odd noise seeds measure
// noise-free.
func FuzzMeasure(f *testing.F) {
	f.Add(uint16(1000), uint64(1), []byte{16, 100, 8, 200, 0, 50, 40, 120})
	f.Add(uint16(250), uint64(2), []byte{255, 90, 255, 91, 3, 250})
	f.Add(uint16(4321), uint64(7), []byte{0, 10, 0, 20, 200, 30, 1, 40, 0, 0})
	f.Add(uint16(0), uint64(4), []byte{1, 1})
	f.Add(uint16(65535), uint64(5), []byte{})
	// 1 s windows over 2,920 s and 5,120 s intervals, noise-free: runs
	// cross the start binades 2^11 to 2^13 and the energy sum's binades.
	f.Add(uint16(2), uint64(1), []byte{200, 100, 255, 250, 3, 7})
	// About 2.3 s windows over 1,040 s at 434 W, then 47 short steps.
	f.Add(uint16(8264), uint64(3), append([]byte{153, 255}, bytes.Repeat([]byte{9, 60}, 47)...))
	// 1 + 2^-45 s windows, noise-free: a tie for every start in [256, 512).
	f.Add(uint16(99), uint64(1), []byte{140, 100, 130, 200})
	f.Fuzz(func(t *testing.T, ival uint16, seed uint64, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		var tl []vmm.Interval
		var now units.Seconds
		for k := 0; k+1 < len(data) && now < 1<<15; k += 2 {
			w := units.Seconds(data[k]) / 10
			if data[k] >= 128 {
				w = units.Seconds(data[k]-127) * 40
			}
			end := now + w
			tl = append(tl, vmm.Interval{Start: now, End: end, Power: units.Watts(data[k+1]) * 1.7})
			now = end
		}
		var interval units.Seconds
		switch ival & 3 {
		case 0, 1:
			interval = 0.25 + units.Seconds(ival)/4000
		case 2:
			interval = 1 + units.Seconds(ival>>2%16)
		case 3:
			interval = 1 + units.Seconds(ival>>2%4) + units.Seconds(math.Ldexp(1, -39-int(ival>>4%11)))
		}
		s := int64(seed >> 1)
		if seed&1 == 1 {
			s = noNoise
		}
		measureBoth(t, interval, 0.015, s, tl)
	})
}
