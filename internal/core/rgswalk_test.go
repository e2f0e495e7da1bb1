package core

// The exhaustive walk over all B(n) set partitions that the reference
// search (reference_test.go) and the partition-list oracles enumerate
// with, and its own tests. The paper cites Orlov's "Efficient
// Generation of Set Partitions" [21]; this is the same
// restricted-growth-string (RGS) scheme: a partition of {0,…,n−1} is
// encoded as a string a where a[i] is the block index of element i,
// a[0] = 0, and a[i] ≤ 1 + max(a[0..i−1]). The walk produces every
// partition in lexicographic RGS order with O(n) work per step. The
// search itself generates only the distinct typed partitions
// (partition.Distinct).

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"pacevm/internal/partition"
)

// generator enumerates the set partitions of {0,…,n−1} in lexicographic
// RGS order. The zero value is not usable; construct with newGenerator.
type generator struct {
	n     int
	a     []int // restricted growth string
	b     []int // b[i] = 1 + max(a[0..i-1]); b[0] = 1
	first bool
	done  bool
}

// newGenerator returns a generator over partitions of n elements.
func newGenerator(n int) (*generator, error) {
	if n < 1 || n > partition.MaxN {
		return nil, fmt.Errorf("n=%d out of [1,%d]", n, partition.MaxN)
	}
	g := &generator{n: n, a: make([]int, n), b: make([]int, n), first: true}
	for i := range g.b {
		g.b[i] = 1
	}
	return g, nil
}

// next advances to the next partition and reports whether one exists.
// The first call yields the all-zeros RGS, the one-block partition.
func (g *generator) next() bool {
	if g.done {
		return false
	}
	if g.first {
		g.first = false
		return true
	}
	// Find the rightmost position that can be incremented.
	for i := g.n - 1; i >= 1; i-- {
		if g.a[i] < g.b[i] && g.a[i] < g.n-1 {
			g.a[i]++
			// Reset the suffix and recompute prefix maxima.
			m := g.b[i]
			if g.a[i] == m {
				m++
			}
			for j := i + 1; j < g.n; j++ {
				g.a[j] = 0
				g.b[j] = m
			}
			return true
		}
	}
	g.done = true
	return false
}

// blocks materializes the current partition as a list of blocks, each a
// sorted list of element indices, ordered by block index (first
// occurrence order). The blocks share one freshly allocated backing
// array per call, so retaining the result across next is safe.
func (g *generator) blocks() [][]int {
	nblocks := 0
	var sizes [partition.MaxN]int
	for _, v := range g.a {
		sizes[v]++
		nblocks = max(nblocks, v+1)
	}
	flat := make([]int, g.n)
	blocks := make([][]int, nblocks)
	off := 0
	for b := range blocks {
		blocks[b] = flat[off : off : off+sizes[b]]
		off += sizes[b]
	}
	for i, v := range g.a {
		blocks[v] = append(blocks[v], i)
	}
	return blocks
}

// forEachPartition visits every set partition of {0,…,n−1} in
// lexicographic RGS order. The callback receives the blocks and returns
// false to stop early. forEachPartition reports the number of
// partitions visited.
func forEachPartition(n int, fn func(blocks [][]int) bool) (int, error) {
	g, err := newGenerator(n)
	if err != nil {
		return 0, err
	}
	count := 0
	for g.next() {
		count++
		if !fn(g.blocks()) {
			break
		}
	}
	return count, nil
}

func TestForEachCountsMatchBell(t *testing.T) {
	for n := 1; n <= 9; n++ {
		got, err := forEachPartition(n, func([][]int) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		if uint64(got) != partition.Bell(n) {
			t.Errorf("forEachPartition(%d) visited %d partitions, want B(%d)=%d", n, got, n, partition.Bell(n))
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	visited, err := forEachPartition(5, func([][]int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if visited != 1 {
		t.Errorf("early stop visited %d, want 1", visited)
	}
}

func TestGeneratorBounds(t *testing.T) {
	if _, err := newGenerator(0); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := newGenerator(partition.MaxN + 1); err == nil {
		t.Error("n beyond MaxN should fail")
	}
}

func TestPartitionsOfThree(t *testing.T) {
	var got []string
	_, err := forEachPartition(3, func(blocks [][]int) bool {
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
		_, err := forEachPartition(n, func(blocks [][]int) bool {
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
	g, err := newGenerator(7)
	if err != nil {
		t.Fatal(err)
	}
	for g.next() {
		a := rgsOf(g.blocks(), 7)
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
	g, err := newGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	var prev []int
	for g.next() {
		cur := rgsOf(g.blocks(), 6)
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

// TestBlockSizesMatchIntPartitions cross-checks the two enumerations:
// grouping set partitions of n by their block-size multiset must yield
// exactly the integer partitions of n.
func TestBlockSizesMatchIntPartitions(t *testing.T) {
	// intPartitions[n] is p(n), the number of partitions of the integer n.
	intPartitions := []int{1, 1, 2, 3, 5, 7, 11, 15}
	for n := 1; n <= 7; n++ {
		shapes := map[string]bool{}
		if _, err := forEachPartition(n, func(blocks [][]int) bool {
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
		if len(shapes) != intPartitions[n] {
			t.Errorf("n=%d: %d distinct shapes, want p(%d)=%d", n, len(shapes), n, intPartitions[n])
		}
	}
}

func TestGeneratorExhaustionIsSticky(t *testing.T) {
	g, _ := newGenerator(2)
	for g.next() {
	}
	if g.next() {
		t.Error("next returned true after exhaustion")
	}
}

func TestBlocksPropertyRandomN(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw%8) + 1
		count, err := forEachPartition(n, func(blocks [][]int) bool {
			total := 0
			for _, b := range blocks {
				total += len(b)
			}
			return total == n
		})
		return err == nil && uint64(count) == partition.Bell(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBlocksAreIndependent(t *testing.T) {
	// blocks carves all blocks from one backing array; appending to any
	// returned block must never bleed into a sibling.
	g, err := newGenerator(6)
	if err != nil {
		t.Fatal(err)
	}
	for g.next() {
		blocks := g.blocks()
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

// BenchmarkPartitions8 walks all 4,140 set partitions of 8 elements, the
// reference search's enumeration at n = 8.
func BenchmarkPartitions8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n, err := forEachPartition(8, func([][]int) bool { return true })
		if err != nil || n != 4140 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}
