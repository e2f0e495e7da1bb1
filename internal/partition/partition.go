// Package partition enumerates set partitions, the search space of the
// paper's brute-force allocation algorithm (Sect. III.D). The paper cites
// Orlov's "Efficient Generation of Set Partitions" [21]; this package
// implements the same restricted-growth-string (RGS) scheme: a partition
// of {0,…,n−1} is encoded as a string a where a[i] is the block index of
// element i, a[0] = 0, and a[i] ≤ 1 + max(a[0..i−1]). Successive
// partitions are produced in lexicographic RGS order with O(n) work per
// step and no allocation beyond the generator's own buffers.
//
// Integer partitions (for multisets of interchangeable items) and Bell
// numbers (for test oracles and search-size guards) are provided too.
package partition

import (
	"fmt"
	"math"
)

// MaxN bounds the element count accepted by the generators. B(12) is
// already 4,213,597 candidate partitions; the paper's allocator only ever
// partitions a job's 1–4 VMs (plus small bursts), so the bound is a
// safety net against accidental combinatorial explosion, not a practical
// limit.
const MaxN = 12

// Bell returns the n-th Bell number B(n), the number of set partitions of
// an n-element set. It panics for n < 0 or n > MaxN+1.
func Bell(n int) uint64 {
	if n < 0 || n > MaxN+1 {
		panic(fmt.Sprintf("partition: Bell(%d) out of range", n))
	}
	// Bell triangle.
	row := []uint64{1}
	for i := 0; i < n; i++ {
		next := make([]uint64, len(row)+1)
		next[0] = row[len(row)-1]
		for j := range row {
			next[j+1] = next[j] + row[j]
		}
		row = next
	}
	return row[0]
}

// Generator enumerates the set partitions of {0,…,n−1} in lexicographic
// RGS order. The zero value is not usable; construct with NewGenerator.
type Generator struct {
	n     int
	a     []int // restricted growth string
	b     []int // b[i] = 1 + max(a[0..i-1]); b[0] = 1
	first bool
	done  bool
}

// NewGenerator returns a generator over partitions of n elements.
func NewGenerator(n int) (*Generator, error) {
	g := &Generator{}
	if err := g.Reset(n); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset rewinds the generator to the first partition of n elements,
// reusing its buffers when they are large enough, so a long-lived
// generator enumerates request after request without allocating.
func (g *Generator) Reset(n int) error {
	if n < 1 || n > MaxN {
		return fmt.Errorf("partition: n=%d out of [1,%d]", n, MaxN)
	}
	if cap(g.a) < n {
		g.a, g.b = make([]int, n, MaxN), make([]int, n, MaxN)
	}
	g.n, g.a, g.b = n, g.a[:n], g.b[:n]
	for i := range g.a {
		g.a[i], g.b[i] = 0, 1
	}
	g.first, g.done = true, false
	return nil
}

// Next advances to the next partition and reports whether one exists. The
// first call yields the single-block partition {{0,…,n−1}}… actually the
// all-zeros RGS, which is the one-block partition.
func (g *Generator) Next() bool {
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

// RGS returns the current restricted growth string. The slice is the
// generator's buffer; callers must copy it to retain it across Next.
func (g *Generator) RGS() []int { return g.a }

// Blocks materializes the current partition as a list of blocks, each a
// sorted list of element indices, ordered by block index (first
// occurrence order). The blocks share one freshly allocated backing
// array per call, so retaining the result across Next is safe.
func (g *Generator) Blocks() [][]int {
	return g.BlocksInto(make([]int, g.n), nil)
}

// BlocksInto is Blocks over caller-owned storage: flat (at least n
// entries) backs the blocks and blocks' capacity is reused for the
// block list, so a caller that recycles both enumerates without
// allocating. The result aliases flat and is overwritten by the next
// BlocksInto call on the same buffers.
func (g *Generator) BlocksInto(flat []int, blocks [][]int) [][]int {
	nblocks := 0
	var sizes [MaxN]int
	for _, v := range g.a {
		sizes[v]++
		if v+1 > nblocks {
			nblocks = v + 1
		}
	}
	blocks = append(blocks[:0], make([][]int, nblocks)...)
	off := 0
	for b := 0; b < nblocks; b++ {
		blocks[b] = flat[off : off : off+sizes[b]]
		off += sizes[b]
	}
	for i, v := range g.a {
		blocks[v] = append(blocks[v], i)
	}
	return blocks
}

// ForEach visits every set partition of {0,…,n−1}. The callback receives
// the blocks (valid only during the call) and returns false to stop
// early. ForEach reports the number of partitions visited.
func ForEach(n int, fn func(blocks [][]int) bool) (int, error) {
	return ForEachIndexed(n, func(_ int, blocks [][]int) bool { return fn(blocks) })
}

// ForEachIndexed visits every set partition of {0,…,n−1} together with
// its 0-based position in the lexicographic RGS enumeration order. The
// index is the deterministic identity of a partition within the search:
// parallel consumers carry it through fan-out so first-of-the-list
// tie-breaks survive an out-of-order reduce. The callback returns false
// to stop early; ForEachIndexed reports the number of partitions
// visited.
func ForEachIndexed(n int, fn func(idx int, blocks [][]int) bool) (int, error) {
	g, err := NewGenerator(n)
	if err != nil {
		return 0, err
	}
	count := 0
	for g.Next() {
		idx := count
		count++
		if !fn(idx, g.Blocks()) {
			break
		}
	}
	return count, nil
}

// Ints visits every partition of the integer n into positive parts in
// non-increasing order (e.g. 4 = 4, 3+1, 2+2, 2+1+1, 1+1+1+1). The parts
// slice is reused across calls; the callback returns false to stop.
// Integer partitions are the deduplicated search space when all items
// are interchangeable — the common case of a job whose VMs share one
// profile.
func Ints(n int, fn func(parts []int) bool) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("partition: Ints(%d) requires n >= 1", n)
	}
	parts := make([]int, 0, n)
	count := 0
	var rec func(remaining, maxPart int) bool
	rec = func(remaining, maxPart int) bool {
		if remaining == 0 {
			count++
			return fn(parts)
		}
		limit := maxPart
		if remaining < limit {
			limit = remaining
		}
		for p := limit; p >= 1; p-- {
			parts = append(parts, p)
			cont := rec(remaining-p, p)
			parts = parts[:len(parts)-1]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(n, n)
	return count, nil
}

// CountInts returns p(n), the number of integer partitions of n, via
// Euler's pentagonal recurrence. Used as a test oracle.
func CountInts(n int) uint64 {
	if n < 0 {
		panic("partition: CountInts of negative n")
	}
	p := make([]uint64, n+1)
	p[0] = 1
	for i := 1; i <= n; i++ {
		sign := 1
		var total int64
		for k := 1; ; k++ {
			for _, g := range [2]int{k * (3*k - 1) / 2, k * (3*k + 1) / 2} {
				if g > i {
					continue
				}
				if sign > 0 {
					total += int64(p[i-g])
				} else {
					total -= int64(p[i-g])
				}
			}
			if k*(3*k-1)/2 > i {
				break
			}
			sign = -sign
		}
		if total < 0 || total > math.MaxInt64 {
			panic("partition: CountInts overflow")
		}
		p[i] = uint64(total)
	}
	return p[n]
}
