package core

import "pacevm/internal/partition"

// partitionList is the search space of one VM type pattern (the type id
// of each VM, see vmTypes): the distinct typed partitions of the VMs —
// set partitions up to interchangeable VMs — in the order the search
// scores them, each as its first restricted growth string
// (partition.Distinct). A search context memoizes the lists of the
// patterns it has searched.
type partitionList struct {
	n     int
	count int // distinct partitions
	bell  int // B(n): every set partition, repeats included
	// A block's composition — c_t VMs of each type t — has id
	// Σ c_t·radix[t], where radix is the mixed radix of span[t] = (VMs of
	// type t) + 1. The ids run below nComps ≤ 2^12 and index the search's
	// per-block tables directly.
	nTypes int
	radix  [partition.MaxN]int
	span   [partition.MaxN]int
	nComps int
	// Partition k's VMs block by block (n entries from k·n), the
	// composition ids of its blocks (zero-padded to n), and its rank: the
	// position of its RGS among all B(n) set partitions.
	vms   []uint8
	comps []uint16
	rank  []uint32
}

// newPartitionList generates the list of the pattern typeOf, whose ids
// run from 0 to nTypes-1.
func newPartitionList(typeOf []uint8, nTypes int) (*partitionList, error) {
	n := len(typeOf)
	pl := &partitionList{n: n, nTypes: nTypes, nComps: 1}
	for _, t := range typeOf {
		pl.span[t]++
	}
	for t := range nTypes {
		pl.span[t]++
		pl.radix[t] = pl.nComps
		pl.nComps *= pl.span[t]
	}
	count, err := partition.Distinct(typeOf, func(rgs []int, rank int) {
		var comps [partition.MaxN]uint16
		blocks := 0
		for i, b := range rgs {
			comps[b] += uint16(pl.radix[typeOf[i]])
			blocks = max(blocks, b+1)
		}
		for b := range blocks {
			for i, ib := range rgs {
				if ib == b {
					pl.vms = append(pl.vms, uint8(i))
				}
			}
		}
		pl.comps = append(pl.comps, comps[:n]...)
		pl.rank = append(pl.rank, uint32(rank))
	})
	if err != nil {
		return nil, err
	}
	pl.count, pl.bell = count, int(partition.Bell(n))
	return pl, nil
}

// walked returns the enumeration counts of a search that scored the list's
// first k partitions: every set partition up to the RGS of partition k
// (the one the search was cut at), or all B(n) when k is the whole list,
// and how many of those repeat an earlier one.
func (pl *partitionList) walked(k int) (enumerated, deduped int) {
	if k == pl.count {
		return pl.bell, pl.bell - pl.count
	}
	r := int(pl.rank[k])
	return r + 1, r - k
}

// maxMemoPartitions bounds the partitions a search context memoizes.
// Every request a binary builds has one of four patterns of at most 5
// partitions; patterns past the bound (tests of wide heterogeneous
// requests) are generated per call.
const maxMemoPartitions = 1 << 16

// partitions returns the partition list of the request's type pattern,
// generating it on the context's first request of that pattern. The
// memo key packs each VM's type id plus one in 4 bits, which type ids
// below partition.MaxN allow.
func (sc *searchCtx) partitions() (*partitionList, error) {
	if len(sc.typeOf) > partition.MaxN {
		return newPartitionList(sc.typeOf, len(sc.types)) // the size error
	}
	var key uint64
	for i, t := range sc.typeOf {
		key |= uint64(t+1) << (4 * i)
	}
	if pl := sc.lists[key]; pl != nil {
		return pl, nil
	}
	pl, err := newPartitionList(sc.typeOf, len(sc.types))
	if err == nil && sc.listed+pl.count <= maxMemoPartitions {
		if sc.lists == nil {
			sc.lists = make(map[uint64]*partitionList)
		}
		sc.lists[key] = pl
		sc.listed += pl.count
	}
	return pl, err
}
