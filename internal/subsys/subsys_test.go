package subsys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	cases := []struct {
		id   ID
		want string
	}{
		{CPU, "cpu"}, {MEM, "mem"}, {DISK, "disk"}, {NET, "net"}, {ID(9), "subsys(9)"},
	}
	for _, c := range cases {
		if got := c.id.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.id), got, c.want)
		}
	}
}

func TestValid(t *testing.T) {
	for _, id := range All {
		if !id.Valid() {
			t.Errorf("%v should be valid", id)
		}
	}
	for _, id := range []ID{-1, ID(Count), 42} {
		if id.Valid() {
			t.Errorf("%d should be invalid", int(id))
		}
	}
}

func TestGetPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Get on invalid id should panic")
		}
	}()
	V(1, 2, 3, 4).Get(ID(99))
}

func TestVectorBasicOps(t *testing.T) {
	a := V(1, 2, 3, 4)
	b := V(4, 3, 2, 1)
	if got := a.Add(b); got != V(5, 5, 5, 5) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6, 8) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDiv(t *testing.T) {
	got := V(2, 0, 3, 0).Div(V(4, 2, 0, 0))
	if got[CPU] != 0.5 || got[MEM] != 0 || !math.IsInf(got[DISK], 1) || got[NET] != 0 {
		t.Errorf("Div = %v", got)
	}
}

func TestZeroAndNonNegative(t *testing.T) {
	var z Vector
	if !z.IsZero() || !z.NonNegative() {
		t.Error("zero vector misclassified")
	}
	if V(0, -1, 0, 0).NonNegative() {
		t.Error("negative component misclassified")
	}
	if V(0, math.NaN(), 0, 0).NonNegative() {
		t.Error("NaN component should not be non-negative")
	}
}

func TestClamp01(t *testing.T) {
	if got := V(-1, 0.5, 2, 1).Clamp01(); got != V(0, 0.5, 1, 1) {
		t.Errorf("Clamp01 = %v", got)
	}
}

func TestString(t *testing.T) {
	want := "{cpu=1.000 mem=2.000 disk=3.000 net=4.000}"
	if got := V(1, 2, 3, 4).String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// bounded produces a vector with finite moderate components from raw quick
// inputs, avoiding NaN/Inf in algebraic property checks.
func bounded(v Vector) Vector {
	for i := range v {
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			v[i] = 0
		}
		v[i] = math.Mod(v[i], 1e6)
	}
	return v
}

func TestAddCommutativeAssociative(t *testing.T) {
	f := func(a, b, c Vector) bool {
		a, b, c = bounded(a), bounded(b), bounded(c)
		if a.Add(b) != b.Add(a) {
			return false
		}
		l := a.Add(b).Add(c)
		r := a.Add(b.Add(c))
		for i := range l {
			if math.Abs(l[i]-r[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp01Idempotent(t *testing.T) {
	f := func(a Vector) bool {
		a = bounded(a)
		c := a.Clamp01()
		return c == c.Clamp01() && c.NonNegative()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
