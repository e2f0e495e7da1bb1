package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds matched %d/100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(3)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/n) > 0.1*draws/n {
			t.Errorf("Intn(%d): value %d drawn %d times, want ~%d", n, v, c, draws/n)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntBetween(t *testing.T) {
	r := New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.IntBetween(1, 5)
		if v < 1 || v > 5 {
			t.Fatalf("IntBetween(1,5) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("IntBetween(1,5) covered %d values, want 5", len(seen))
	}
	if got := r.IntBetween(3, 3); got != 3 {
		t.Errorf("IntBetween(3,3) = %d", got)
	}
}

func TestIntBetweenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntBetween(5,1) should panic")
		}
	}()
	New(1).IntBetween(5, 1)
}

func TestExpMean(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(50)
		if v < 0 {
			t.Fatalf("Exp draw negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Errorf("Exp(50) mean = %v", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(17)
	sum, sumsq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Errorf("Norm stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(19)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(5, 1.5); v <= 0 {
			t.Fatalf("LogNormal draw non-positive: %v", v)
		}
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) should panic")
		}
	}()
	New(1).Exp(0)
}

func TestBoolProbability(t *testing.T) {
	r := New(29)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/n-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", float64(hits)/n)
	}
}

func TestSourceNamedStreamsIndependent(t *testing.T) {
	src := NewSource(99)
	a1 := src.Stream("arrivals")
	a2 := src.Stream("arrivals")
	b := src.Stream("meter")
	for i := 0; i < 100; i++ {
		va := a1.Uint64()
		if va != a2.Uint64() {
			t.Fatal("same-named streams diverged")
		}
	}
	// Independence: different name should give a different sequence.
	a3 := src.Stream("arrivals")
	diff := false
	for i := 0; i < 10; i++ {
		if a3.Uint64() != b.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("differently named streams produced identical output")
	}
}

func TestSourceSeedChangesStreams(t *testing.T) {
	s1 := NewSource(1).Stream("x")
	s2 := NewSource(2).Stream("x")
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Error("streams under different master seeds look identical")
	}
}
