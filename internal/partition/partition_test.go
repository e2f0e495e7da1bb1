package partition

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"
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

func TestForEachCountsMatchBell(t *testing.T) {
	for n := 1; n <= 9; n++ {
		got, err := ForEach(n, func([][]int) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if uint64(got) != Bell(n) {
			t.Errorf("ForEach(%d) visited %d partitions, want B(%d)=%d", n, got, n, Bell(n))
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	visited, err := ForEach(5, func([][]int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if visited != 1 {
		t.Errorf("early stop visited %d, want 1", visited)
	}
}

func TestGeneratorBounds(t *testing.T) {
	if _, err := NewGenerator(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewGenerator(MaxN + 1); err == nil {
		t.Error("n beyond MaxN should fail")
	}
}

func TestPartitionsOfThree(t *testing.T) {
	var got []string
	_, err := ForEach(3, func(blocks [][]int) bool {
		got = append(got, fmt.Sprint(blocks))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"[[0 1 2]]",
		"[[0 1] [2]]",
		"[[0 2] [1]]",
		"[[0] [1 2]]",
		"[[0] [1] [2]]",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d partitions: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("partition %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestPartitionsAreValidAndDistinct checks the defining properties for
// every n: each partition covers every element exactly once, blocks are
// non-empty, and no partition repeats.
func TestPartitionsAreValidAndDistinct(t *testing.T) {
	for n := 1; n <= 8; n++ {
		seen := map[string]bool{}
		_, err := ForEach(n, func(blocks [][]int) bool {
			covered := make([]int, n)
			for _, b := range blocks {
				if len(b) == 0 {
					t.Fatalf("n=%d: empty block in %v", n, blocks)
				}
				for _, e := range b {
					covered[e]++
				}
			}
			for e, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d: element %d covered %d times in %v", n, e, c, blocks)
				}
			}
			key := fmt.Sprint(blocks)
			if seen[key] {
				t.Fatalf("n=%d: duplicate partition %v", n, blocks)
			}
			seen[key] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRGSIsRestrictedGrowth(t *testing.T) {
	g, err := NewGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	for g.Next() {
		a := rgsOf(g.Blocks(), 7)
		if a[0] != 0 {
			t.Fatalf("RGS %v does not start at 0", a)
		}
		maxSeen := 0
		for i := 1; i < len(a); i++ {
			if a[i] > maxSeen+1 || a[i] < 0 {
				t.Fatalf("RGS %v violates growth at %d", a, i)
			}
			if a[i] > maxSeen {
				maxSeen = a[i]
			}
		}
	}
}

func TestRGSLexicographicOrder(t *testing.T) {
	g, err := NewGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	var prev []int
	for g.Next() {
		cur := rgsOf(g.Blocks(), 6)
		if prev != nil && !lexLess(prev, cur) {
			t.Fatalf("RGS not increasing: %v then %v", prev, cur)
		}
		prev = cur
	}
}

// rgsOf encodes blocks of {0,…,n−1}, listed in first-occurrence
// order, as their restricted growth string.
func rgsOf(blocks [][]int, n int) []int {
	a := make([]int, n)
	for b, block := range blocks {
		for _, e := range block {
			a[e] = b
		}
	}
	return a
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// intPartitions[n] is p(n), the number of partitions of the integer n.
var intPartitions = []uint64{1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77}

// TestBlockSizesMatchIntPartitions cross-checks the two enumerations:
// grouping set partitions of n by their block-size multiset must yield
// exactly the integer partitions of n.
func TestBlockSizesMatchIntPartitions(t *testing.T) {
	for n := 1; n <= 7; n++ {
		shapes := map[string]bool{}
		if _, err := ForEach(n, func(blocks [][]int) bool {
			sizes := make([]int, len(blocks))
			for i, b := range blocks {
				sizes[i] = len(b)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
			shapes[fmt.Sprint(sizes)] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if uint64(len(shapes)) != intPartitions[n] {
			t.Errorf("n=%d: %d distinct shapes, want p(%d)=%d", n, len(shapes), n, intPartitions[n])
		}
	}
}

func TestGeneratorExhaustionIsSticky(t *testing.T) {
	g, _ := NewGenerator(2)
	for g.Next() {
	}
	if g.Next() {
		t.Error("Next returned true after exhaustion")
	}
}

func TestBlocksPropertyRandomN(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%8) + 1
		count, err := ForEach(n, func(blocks [][]int) bool {
			total := 0
			for _, b := range blocks {
				total += len(b)
			}
			return total == n
		})
		return err == nil && uint64(count) == Bell(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBlocksAreIndependent(t *testing.T) {
	// Blocks carves all blocks from one backing array; appending to any
	// returned block must never bleed into a sibling.
	g, err := NewGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	for g.Next() {
		blocks := g.Blocks()
		snapshot := make([][]int, len(blocks))
		for i, b := range blocks {
			snapshot[i] = append([]int(nil), b...)
		}
		for i := range blocks {
			blocks[i] = append(blocks[i], 99)
		}
		for i, b := range snapshot {
			for j, v := range b {
				if blocks[i][j] != v {
					t.Fatalf("append to one block corrupted block %d", i)
				}
			}
		}
	}
}

// TestDistinctExtremes pins Distinct at the two ends of the type
// spectrum: with one type the distinct partitions are the integer
// partitions of n, first RGSs of non-increasing block sizes; with every
// element its own type nothing repeats, so Distinct is the full RGS
// walk, ranks and all.
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
		var all [][]int
		if _, err := ForEach(n, func(blocks [][]int) bool {
			all = append(all, rgsOf(blocks, n))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		count, err = Distinct(distinct, func(rgs []int, rank int) {
			if rank >= len(all) || !slices.Equal(rgs, all[rank]) {
				t.Fatalf("n=%d, all distinct: RGS %v at rank %d", n, rgs, rank)
			}
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
