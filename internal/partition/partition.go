// Package partition enumerates set partitions, the search space of the
// paper's brute-force allocation algorithm (Sect. III.D). The paper cites
// Orlov's "Efficient Generation of Set Partitions" [21]; this package
// uses the same restricted-growth-string (RGS) encoding: a partition of
// {0,…,n−1} is a string a where a[i] is the block index of element i,
// a[0] = 0, and a[i] ≤ 1 + max(a[0..i−1]), and partitions are ordered
// lexicographically by their RGS. Distinct generates only the
// partitions that differ when elements of one type are interchangeable
// — the allocator's search space — each once, as its first RGS, with
// its rank in the walk over all B(n) partitions. Bell gives that walk's
// length, from which the search reports its enumeration statistics.
package partition

import (
	"fmt"
	"slices"
)

// MaxN bounds the element count Distinct accepts. B(12) is already
// 4,213,597 set partitions. Distinct's cost follows the number of
// distinct typed partitions instead (6,721 for 12 elements of three
// types), but its prefix keys pack block composition ids in 12 bits,
// which holds for n ≤ 12. The paper's allocator only ever partitions a
// job's 1–4 VMs, so the bound is a safety net against accidental
// combinatorial explosion, not a practical limit.
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

func errN(n int) error { return fmt.Errorf("partition: n=%d out of [1,%d]", n, MaxN) }

// Distinct visits the distinct typed partitions of n = len(types)
// elements, element i being of type types[i]. Two set partitions are
// the same typed partition when their multisets of block compositions
// (how many elements of each type a block holds) are equal: the
// interchangeable-item reduction generalized to several item types.
// Each typed partition is visited once, as its first RGS, and in
// lexicographic RGS order, so the visits are exactly the partitions a
// walk over all B(n) set partitions keeps when it skips every repeat,
// in the walk's order. fn receives the RGS (valid only during the call)
// and its rank, the RGS's 0-based position in that walk. Distinct
// reports the number of partitions visited.
//
// The walk is a depth-first search over RGS prefixes in lexicographic
// order that keeps a prefix only if no earlier prefix of its length is
// the same typed partition. Every prefix of a first RGS is itself
// first: an earlier twin of the prefix, completed by the rest of the
// string with each old block mapped to a twin block of the same
// composition, would be an earlier twin of the whole. So no first RGS
// is lost, and the search visits Σ_k distinct(k) prefixes instead of
// B(n) strings.
func Distinct(types []uint8, fn func(rgs []int, rank int)) (int, error) {
	n := len(types)
	if n < 1 || n > MaxN {
		return 0, errN(n)
	}
	w := distinctWalk{types: types, fn: fn, a: make([]int, n), seen: make([]map[compKey]bool, n)}
	// A block's composition id is Σ (elements of type t) · radix[t]:
	// mixed radix over the per-type totals, so ids stay below 2^MaxN.
	var total [256]int
	for _, t := range types {
		total[t]++
	}
	r := 1
	for t := range total {
		if total[t] > 0 {
			w.radix[t] = r
			r *= total[t] + 1
		}
	}
	// w.tails[rem][m] counts the completions of a prefix holding m blocks
	// by rem more elements: tails[0][m] = 1, and the next element joins one
	// of the m blocks or opens block m+1.
	w.tails = make([][]int, n)
	for rem := range w.tails {
		w.tails[rem] = make([]int, n+1)
		for m := 1; m+rem <= n; m++ {
			w.tails[rem][m] = 1
			if rem > 0 {
				w.tails[rem][m] = m*w.tails[rem-1][m] + w.tails[rem-1][m+1]
			}
		}
	}
	for d := range w.seen {
		w.seen[d] = make(map[compKey]bool)
	}
	w.visit(0, 0, 0)
	return w.count, nil
}

// compKey is a typed partition of a prefix: its block composition ids
// in ascending order, packed 12 bits each (ids are below 2^MaxN).
type compKey [3]uint64

// distinctWalk is Distinct's search state.
type distinctWalk struct {
	types []uint8
	fn    func([]int, int)
	radix [256]int
	tails [][]int
	a     []int              // the RGS prefix
	comp  [MaxN]int          // composition id of each block of the prefix
	seen  []map[compKey]bool // seen[d]: typed partitions of kept (d+1)-prefixes
	count int
}

// visit extends the d-element prefix of rank rank, holding m blocks, by
// every block element d may join, in ascending block order.
func (w *distinctWalk) visit(d, m, rank int) {
	n := len(w.a)
	if d == n {
		w.count++
		w.fn(w.a, rank)
		return
	}
	step := w.radix[w.types[d]]
	for j := 0; j <= m; j++ {
		w.comp[j] += step
		nm := max(m, j+1)
		if key := w.key(nm); !w.seen[d][key] {
			w.seen[d][key] = true
			w.a[d] = j
			w.visit(d+1, nm, rank+j*w.tails[n-1-d][m])
		}
		w.comp[j] -= step
	}
}

// key packs the sorted composition ids of the prefix's m blocks.
func (w *distinctWalk) key(m int) compKey {
	var ids [MaxN]int
	copy(ids[:m], w.comp[:m])
	slices.Sort(ids[:m])
	var k compKey
	for i, id := range ids[:m] {
		k[i/5] |= uint64(id) << (12 * (i % 5))
	}
	return k
}
