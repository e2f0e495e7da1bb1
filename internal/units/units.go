// Package units provides typed physical quantities used throughout the
// PACE-VM simulator: time, power, energy, data sizes and rates.
//
// Quantities are thin float64 wrappers. They exist so that function
// signatures document their dimension (a Watts cannot silently be passed
// where Joules are expected) and so that formatting is uniform across the
// reporting tools. Arithmetic that crosses dimensions is expressed through
// explicit constructors such as [EnergyOver] and [Watts.Times].
package units

import (
	"fmt"
	"math"
)

// Seconds is a duration expressed in seconds. The simulators operate in
// continuous virtual time, so a float64 second count is more convenient
// than time.Duration (which is integer nanoseconds and overflows after
// ~292 years of virtual time in a single trace replay).
type Seconds float64

func (s Seconds) String() string { return fmt.Sprintf("%.3fs", float64(s)) }

// Watts is instantaneous power.
type Watts float64

func (w Watts) String() string { return fmt.Sprintf("%.1fW", float64(w)) }

// Times integrates a constant power over a duration, yielding energy.
func (w Watts) Times(d Seconds) Joules { return Joules(float64(w) * float64(d)) }

// Joules is energy.
type Joules float64

func (j Joules) String() string {
	switch {
	case math.Abs(float64(j)) >= 1e9:
		return fmt.Sprintf("%.3fGJ", float64(j)/1e9)
	case math.Abs(float64(j)) >= 1e6:
		return fmt.Sprintf("%.3fMJ", float64(j)/1e6)
	case math.Abs(float64(j)) >= 1e3:
		return fmt.Sprintf("%.3fkJ", float64(j)/1e3)
	default:
		return fmt.Sprintf("%.1fJ", float64(j))
	}
}

// EnergyOver returns the average power of an energy spent over a duration.
// It returns 0 for a non-positive duration.
func EnergyOver(e Joules, d Seconds) Watts {
	if d <= 0 {
		return 0
	}
	return Watts(float64(e) / float64(d))
}

// JouleSeconds is the unit of the Energy-Delay Product (EDP) the paper
// stores per model-database record (Table II).
type JouleSeconds float64

func (js JouleSeconds) String() string { return fmt.Sprintf("%.3gJ·s", float64(js)) }

// EDP computes the energy-delay product of an outcome.
func EDP(e Joules, t Seconds) JouleSeconds { return JouleSeconds(float64(e) * float64(t)) }

// MiB is a data size in mebibytes (used for VM memory footprints).
type MiB float64

func (m MiB) String() string {
	if m >= 1024 {
		return fmt.Sprintf("%.2fGiB", float64(m)/1024)
	}
	return fmt.Sprintf("%.0fMiB", float64(m))
}

// MiBps is a data rate in mebibytes per second (memory/disk bandwidth).
type MiBps float64

func (r MiBps) String() string { return fmt.Sprintf("%.1fMiB/s", float64(r)) }

// Mbps is a network rate in megabits per second.
type Mbps float64

func (r Mbps) String() string { return fmt.Sprintf("%.1fMb/s", float64(r)) }

// NearlyEqual reports whether a and b agree to within rel relative
// tolerance (or 1e-12 absolute for values near zero). It is the comparison
// primitive used by simulator invariant checks and tests.
func NearlyEqual(a, b, rel float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= 1e-12 {
		return true
	}
	return diff <= rel*math.Max(math.Abs(a), math.Abs(b))
}
