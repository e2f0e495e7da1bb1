package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerTimes(t *testing.T) {
	e := Watts(125).Times(Seconds(60))
	if e != Joules(7500) {
		t.Errorf("125W * 60s = %v, want 7500J", e)
	}
}

func TestEnergyOver(t *testing.T) {
	if p := EnergyOver(Joules(7500), Seconds(60)); p != Watts(125) {
		t.Errorf("7500J / 60s = %v, want 125W", p)
	}
	if p := EnergyOver(Joules(7500), 0); p != 0 {
		t.Errorf("division by zero duration should yield 0, got %v", p)
	}
	if p := EnergyOver(Joules(7500), Seconds(-1)); p != 0 {
		t.Errorf("negative duration should yield 0, got %v", p)
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(Joules(100), Seconds(10)); got != JouleSeconds(1000) {
		t.Errorf("EDP(100J,10s) = %v, want 1000", got)
	}
}

func TestPowerEnergyInverse(t *testing.T) {
	f := func(pw float64, dur float64) bool {
		p := Watts(math.Abs(math.Mod(pw, 1e6)))
		d := Seconds(math.Abs(math.Mod(dur, 1e6)) + 1e-3)
		back := EnergyOver(p.Times(d), d)
		return NearlyEqual(float64(back), float64(p), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNearlyEqual(t *testing.T) {
	cases := []struct {
		a, b, rel float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1.0000001, 1e-6, true},
		{1, 1.1, 1e-6, false},
		{0, 1e-13, 1e-9, true},
		{100, 101, 0.02, true},
		{100, 103, 0.02, false},
	}
	for _, c := range cases {
		if got := NearlyEqual(c.a, c.b, c.rel); got != c.want {
			t.Errorf("NearlyEqual(%v,%v,%v) = %v, want %v", c.a, c.b, c.rel, got, c.want)
		}
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Seconds(1.5).String(), "1.500s"},
		{Watts(125).String(), "125.0W"},
		{Joules(500).String(), "500.0J"},
		{Joules(14250).String(), "14.250kJ"},
		{Joules(2.5e6).String(), "2.500MJ"},
		{Joules(3.2e9).String(), "3.200GJ"},
		{MiB(512).String(), "512MiB"},
		{MiB(4096).String(), "4.00GiB"},
		{MiBps(100).String(), "100.0MiB/s"},
		{Mbps(1000).String(), "1000.0Mb/s"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
