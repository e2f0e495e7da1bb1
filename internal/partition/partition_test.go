package partition

import (
	"testing"
)

func TestBellNumbers(t *testing.T) {
	want := []uint64{1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597}
	for n, w := range want {
		if got := Bell(n); got != w {
			t.Errorf("Bell(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestBellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bell(-1) should panic")
		}
	}()
	Bell(-1)
}

// intPartitions[n] is p(n), the number of partitions of the integer n.
var intPartitions = []uint64{1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77}

// TestDistinctExtremes pins Distinct at the two ends of the type
// spectrum: with one type the distinct partitions are the integer
// partitions of n, first RGSs of non-increasing block sizes; with every
// element its own type nothing repeats, so Distinct is the full RGS
// walk. That case is checked by properties alone: B(n) visits at ranks
// 0, 1, …, B(n)−1 in order, each a restricted growth string strictly
// after the one before. Exactly B(n) RGSs of length n exist, so this
// pins the whole walk.
func TestDistinctExtremes(t *testing.T) {
	for n := 1; n <= 8; n++ {
		same := make([]uint8, n)
		prev := -1
		count, err := Distinct(same, func(rgs []int, rank int) {
			if rank <= prev {
				t.Fatalf("n=%d: rank %d after %d", n, rank, prev)
			}
			prev = rank
			for i := 1; i < n; i++ {
				if rgs[i] < rgs[i-1] {
					t.Fatalf("n=%d: one-type first RGS %v is not non-decreasing", n, rgs)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(count) != intPartitions[n] {
			t.Errorf("n=%d, one type: %d distinct partitions, want p(n)=%d", n, count, intPartitions[n])
		}

		distinct := make([]uint8, n)
		for i := range distinct {
			distinct[i] = uint8(i)
		}
		prev = -1
		var last []int
		count, err = Distinct(distinct, func(rgs []int, rank int) {
			if want := prev + 1; rank != want {
				t.Fatalf("n=%d, all distinct: RGS %v has rank %d, want %d", n, rgs, rank, want)
			}
			prev = rank
			top := 0
			for i, v := range rgs {
				if v < 0 || v > top || (i == 0 && v != 0) {
					t.Fatalf("n=%d, all distinct: %v is not a restricted growth string", n, rgs)
				}
				top = max(top, v+1)
			}
			if last != nil && !lexLess(last, rgs) {
				t.Fatalf("n=%d, all distinct: RGS %v does not follow %v", n, rgs, last)
			}
			last = append(last[:0], rgs...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(count) != Bell(n) {
			t.Errorf("n=%d, all distinct: %d partitions, want B(n)=%d", n, count, Bell(n))
		}
	}
	for _, n := range []int{0, MaxN + 1} {
		if _, err := Distinct(make([]uint8, n), func([]int, int) {}); err == nil {
			t.Errorf("Distinct accepted n=%d", n)
		}
	}
}

// lexLess reports whether a sorts strictly before b, both of one length.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
