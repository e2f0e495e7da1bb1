package core

// The serial reference implementation of the paper's search, kept as
// the oracle of the optimized engine: a literal transcription of Sect.
// III.D that walks every set partition (forEachPartition), materializes
// every candidate and scores the full list, with only the
// interchangeable-VM partition dedup (via the legacy string signature)
// and the identical-allocation server dedup. Allocate must produce
// bit-for-bit identical results through the pruned, memoized engine in
// search.go (TestAllocateMatchesReference), and
// BenchmarkAllocateReference measures this path as the pre-optimization
// baseline.

import (
	"fmt"
	"sort"
	"strings"

	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// referenceCandidate is one fully-placed partition under evaluation by
// the reference path.
type referenceCandidate struct {
	blocks []refBlock
	time   units.Seconds
	energy units.Joules
}

// AllocateReference runs the unpruned serial brute-force search and
// returns the best allocation for the goal, or ErrInfeasible when no
// candidate satisfies QoS. It is the oracle Allocate is verified
// against.
func (a *Allocator) AllocateReference(goal Goal, servers []ServerState, vms []VMRequest) (Allocation, error) {
	if err := a.validateRequest(goal, servers, vms); err != nil {
		return Allocation{}, err
	}

	var cands []referenceCandidate
	seen := map[string]bool{}
	_, err := forEachPartition(len(vms), func(blocks [][]int) bool {
		sig := legacyPartitionSignature(vms, blocks)
		if seen[sig] {
			return true
		}
		seen[sig] = true
		if cand, ok := a.evalPartitionReference(goal, servers, vms, blocks); ok {
			cands = append(cands, cand)
		}
		return true
	})
	if err != nil {
		return Allocation{}, err
	}
	if len(cands) == 0 {
		return Allocation{}, ErrInfeasible
	}

	best := pickBestReference(goal, cands)
	out := Allocation{EstTime: best.time, EstEnergy: best.energy}
	for _, b := range best.blocks {
		out.Placements = append(out.Placements, b.Placement)
	}
	return out, nil
}

// validateRequest checks the inputs of AllocateReference.
func (a *Allocator) validateRequest(goal Goal, servers []ServerState, vms []VMRequest) error {
	if err := validateGoalVMs(goal, len(servers), vms); err != nil {
		return err
	}
	for _, s := range servers {
		if !s.Alloc.Valid() {
			return fmt.Errorf("core: server %d has invalid allocation %v", s.ID, s.Alloc)
		}
	}
	return nil
}

// pickBestReference normalizes candidate times and energies to their
// maxima and selects the minimum α-weighted score, keeping the earliest
// candidate on ties (deterministic enumeration order → the paper's
// first-of-the-list tie break).
func pickBestReference(goal Goal, cands []referenceCandidate) referenceCandidate {
	var maxT units.Seconds
	var maxE units.Joules
	for _, c := range cands {
		if c.time > maxT {
			maxT = c.time
		}
		if c.energy > maxE {
			maxE = c.energy
		}
	}
	bestScore := 0.0
	bestIdx := -1
	for i, c := range cands {
		tn, en := 0.0, 0.0
		if maxT > 0 {
			tn = float64(c.time) / float64(maxT)
		}
		if maxE > 0 {
			en = float64(c.energy) / float64(maxE)
		}
		score := goal.Alpha*en + (1-goal.Alpha)*tn
		if bestIdx < 0 || score < bestScore-scoreEpsilon {
			bestScore, bestIdx = score, i
		}
	}
	return cands[bestIdx]
}

// evalPartitionReference greedily places every block of the partition on
// its best-scoring feasible server and prices the result. ok is false
// when some block has no feasible server.
func (a *Allocator) evalPartitionReference(goal Goal, servers []ServerState, vms []VMRequest, blocks [][]int) (referenceCandidate, bool) {
	extra := make(map[int]model.Key) // server index -> tentative additions
	placedVMs := make(map[int][]VMRequest)
	var cand referenceCandidate

	for _, block := range blocks {
		blockVMs := make([]VMRequest, len(block))
		var blockKey model.Key
		for i, idx := range block {
			blockVMs[i] = vms[idx]
			blockKey = blockKey.Add(model.KeyFor(vms[idx].Class, 1))
		}

		bestIdx := -1
		var bestPl refBlock
		bestScore := 0.0
		// Servers with identical effective allocation are equivalent;
		// evaluate the first of each group only.
		evaluated := map[model.Key]bool{}
		type option struct {
			idx    int
			pl     refBlock
			before model.Key
		}
		var options []option
		for si, s := range servers {
			base := s.Alloc.Add(extra[si])
			if evaluated[base] {
				continue
			}
			evaluated[base] = true
			pl, ok := a.evalBlock(base, blockKey, blockVMs, placedVMs[si])
			if !ok {
				continue
			}
			pl.ServerID = s.ID
			options = append(options, option{idx: si, pl: pl, before: base})
		}
		if len(options) == 0 {
			return referenceCandidate{}, false
		}
		// Normalize within the block's options and pick the best.
		var maxT units.Seconds
		var maxE units.Joules
		for _, o := range options {
			if o.pl.EstTime > maxT {
				maxT = o.pl.EstTime
			}
			if o.pl.energy > maxE {
				maxE = o.pl.energy
			}
		}
		for _, o := range options {
			tn, en := 0.0, 0.0
			if maxT > 0 {
				tn = float64(o.pl.EstTime) / float64(maxT)
			}
			if maxE > 0 {
				en = float64(o.pl.energy) / float64(maxE)
			}
			// The block-level choice honors the same α as the
			// allocation-level ranking.
			score := goal.Alpha*en + (1-goal.Alpha)*tn
			if bestIdx < 0 || score < bestScore-scoreEpsilon {
				bestScore, bestIdx, bestPl = score, o.idx, o.pl
			}
		}
		extra[bestIdx] = extra[bestIdx].Add(blockKey)
		placedVMs[bestIdx] = append(placedVMs[bestIdx], blockVMs...)
		cand.blocks = append(cand.blocks, bestPl)
		cand.energy += bestPl.energy
		if bestPl.EstTime > cand.time {
			cand.time = bestPl.EstTime
		}
	}
	return cand, true
}

// evalBlock prices adding blockKey to a server currently at base, and
// checks QoS for both the new block and any VMs tentatively placed there
// earlier in this partition: the reference's pricing, which
// searchCtx.priceBlock and placedOK split between them.
func (a *Allocator) evalBlock(base, blockKey model.Key, blockVMs, alreadyPlaced []VMRequest) (refBlock, bool) {
	after := base.Add(blockKey)
	if after.Total() > a.cfg.MaxVMsPerServer {
		return refBlock{}, false
	}
	for _, c := range workload.Classes {
		if after.Count(c) > a.cfg.PerClassBound[c] {
			return refBlock{}, false
		}
	}
	recAfter, err := a.cfg.DB.Estimate(after)
	if err != nil {
		return refBlock{}, false
	}

	var blockTime units.Seconds
	aux := a.cfg.DB.Aux()
	estOf := func(vm VMRequest) (units.Seconds, bool) {
		ref := aux.RefTime[vm.Class]
		if ref <= 0 {
			return 0, false
		}
		return recAfter.ClassTime(vm.Class) * vm.NominalTime / ref, true
	}
	for _, vm := range blockVMs {
		est, ok := estOf(vm)
		if !ok {
			return refBlock{}, false
		}
		if !a.cfg.RelaxQoS && vm.MaxTime > 0 && est > vm.MaxTime {
			return refBlock{}, false
		}
		if est > blockTime {
			blockTime = est
		}
	}
	for _, vm := range alreadyPlaced {
		est, ok := estOf(vm)
		if !ok {
			return refBlock{}, false
		}
		if !a.cfg.RelaxQoS && vm.MaxTime > 0 && est > vm.MaxTime {
			return refBlock{}, false
		}
	}

	// Marginal energy: see searchCtx.priceBlock — whole-outcome energy
	// difference, clamped at zero.
	var beforeEnergy units.Joules
	if !base.IsZero() {
		recBefore, err := a.cfg.DB.Estimate(base)
		if err != nil {
			return refBlock{}, false
		}
		beforeEnergy = recBefore.Energy
	}
	deltaE := recAfter.Energy - beforeEnergy
	if deltaE < 0 {
		deltaE = 0
	}
	return refBlock{Placement: Placement{VMs: blockVMs, NewAlloc: after, EstTime: blockTime}, energy: deltaE}, true
}

// refBlock is the reference's pricing of one block: its placement and
// the marginal energy the move costs, the server's power increase
// (including the 125 W activation cost of a powered-down server)
// integrated over the block's estimated time.
type refBlock struct {
	Placement
	energy units.Joules
}

// legacyPartitionSignature is the string-building canonicalization the
// typed-multiset signature of search.go replaced: two partitions with
// the same multiset of block compositions (by class, nominal time and
// QoS bound) get equal strings. Retained for the reference path and as
// the cross-check oracle of the signature property test; the hot path
// never builds strings.
func legacyPartitionSignature(vms []VMRequest, blocks [][]int) string {
	blockSigs := make([]string, len(blocks))
	for i, block := range blocks {
		items := make([]string, len(block))
		for j, idx := range block {
			vm := vms[idx]
			items[j] = fmt.Sprintf("%d:%g:%g", int(vm.Class), float64(vm.NominalTime), float64(vm.MaxTime))
		}
		sort.Strings(items)
		blockSigs[i] = strings.Join(items, ",")
	}
	sort.Strings(blockSigs)
	return strings.Join(blockSigs, "|")
}
