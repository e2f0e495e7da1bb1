// Package strategy defines the VM placement strategies evaluated in the
// paper (Sect. IV.D):
//
//   - FIRST-FIT (FF): job VMs go to the first server with a free CPU
//     slot; "VM multiplexing on CPUs is not allowed", so a quad-core
//     server holds at most 4 VMs. FIRST-FIT-2 and FIRST-FIT-3 allow
//     multiplexing up to 2 and 3 VMs per CPU (8 and 12 per server).
//   - PROACTIVE (PA-α): the paper's application-centric energy-aware
//     algorithm from internal/core, with α = 1 (minimize energy), α = 0
//     (minimize execution time) or α = 0.5 (best tradeoff).
//
// BEST-FIT is an additional consolidation baseline beyond the paper,
// useful for ablations.
package strategy

import (
	"errors"
	"fmt"

	"pacevm/internal/core"
	"pacevm/internal/model"
)

// Server is a placement-time view of one physical server. It is the
// allocator's own server type, so a Proactive placement hands the
// caller's slice to the search without copying it.
type Server = core.ServerState

// Strategy decides where a job request's VMs run.
type Strategy interface {
	Name() string
	// Place returns, for each VM, the ID of the chosen server. ok is
	// false when the job cannot be placed now and should wait in the
	// queue. Implementations must be all-or-nothing: a false return
	// leaves no VM placed.
	Place(servers []Server, vms []core.VMRequest) (assign []int, ok bool)
}

// PlaceInfo attributes one Place call: the exact search tallies behind
// the decision (zero for heuristics that run no search), whether the
// QoS-relaxed second pass produced the answer, and whether a false
// return means "wait for capacity" rather than "cannot decide". It is
// returned by value per call — strategies stay stateless, one value may
// serve several concurrent simulations.
type PlaceInfo struct {
	Stats   core.SearchStats
	Relaxed bool
	// Waited reports a deliberate QoS wait: the request is satisfiable
	// in principle but no current placement meets every bound, so the
	// job should stay queued until completions free capacity.
	Waited bool
}

// Explainer is implemented by strategies that can attribute their
// placement decisions. PlaceExplained must decide exactly as Place
// (Place is expected to delegate to it), so turning a flight recorder
// on never changes a simulation's outcome.
type Explainer interface {
	Strategy
	PlaceExplained(servers []Server, vms []core.VMRequest) (assign []int, ok bool, info PlaceInfo)
}

// CPUSlotsPerServer is the paper's testbed core count, the basis of the
// first-fit slot arithmetic.
const CPUSlotsPerServer = 4

// FirstFit implements FF and its multiplexing variants.
type FirstFit struct {
	// Multiplex is the number of VMs allowed per CPU: 1 for FF, 2 for
	// FF-2, 3 for FF-3.
	Multiplex int
}

// NewFirstFit returns the FF variant with the given multiplexing level.
func NewFirstFit(multiplex int) (*FirstFit, error) {
	if multiplex < 1 {
		return nil, fmt.Errorf("strategy: multiplex %d must be >= 1", multiplex)
	}
	return &FirstFit{Multiplex: multiplex}, nil
}

func (f *FirstFit) Name() string {
	if f.Multiplex == 1 {
		return "FF"
	}
	return fmt.Sprintf("FF-%d", f.Multiplex)
}

// Cap is the per-server VM limit for this variant.
func (f *FirstFit) Cap() int { return f.Multiplex * CPUSlotsPerServer }

// Place assigns each VM to the first server with a free slot.
func (f *FirstFit) Place(servers []Server, vms []core.VMRequest) ([]int, bool) {
	if len(vms) == 0 {
		return nil, false
	}
	used := make([]int, len(servers))
	for i, s := range servers {
		used[i] = s.Alloc.Total()
	}
	assign := make([]int, len(vms))
	for v := range vms {
		placed := false
		for i := range servers {
			if used[i] < f.Cap() {
				used[i]++
				assign[v] = servers[i].ID
				placed = true
				break
			}
		}
		if !placed {
			return nil, false
		}
	}
	return assign, true
}

// BestFit packs each VM onto the feasible server with the least remaining
// slack (the classic consolidation heuristic), at the given multiplexing
// level. An extra baseline beyond the paper.
type BestFit struct {
	Multiplex int
}

// NewBestFit returns the BF variant with the given multiplexing level.
func NewBestFit(multiplex int) (*BestFit, error) {
	if multiplex < 1 {
		return nil, fmt.Errorf("strategy: multiplex %d must be >= 1", multiplex)
	}
	return &BestFit{Multiplex: multiplex}, nil
}

func (b *BestFit) Name() string { return fmt.Sprintf("BF-%d", b.Multiplex) }

func (b *BestFit) cap() int { return b.Multiplex * CPUSlotsPerServer }

// Place assigns each VM to the fullest server that still has a slot.
func (b *BestFit) Place(servers []Server, vms []core.VMRequest) ([]int, bool) {
	if b.Multiplex < 1 || len(vms) == 0 {
		return nil, false
	}
	used := make([]int, len(servers))
	for i, s := range servers {
		used[i] = s.Alloc.Total()
	}
	assign := make([]int, len(vms))
	for v := range vms {
		best := -1
		for i := range servers {
			if used[i] >= b.cap() {
				continue
			}
			if best < 0 || used[i] > used[best] {
				best = i
			}
		}
		if best < 0 {
			return nil, false
		}
		used[best]++
		assign[v] = servers[best].ID
	}
	return assign, true
}

// Proactive adapts the paper's allocator (internal/core) to the Strategy
// interface.
type Proactive struct {
	goal    core.Goal
	strict  *core.Allocator
	relaxed *core.Allocator
}

// NewProactive builds a PA-α strategy over the given model database,
// capping per-server residency at the database grid bound.
func NewProactive(db *model.DB, goal core.Goal) (*Proactive, error) {
	if db == nil {
		return nil, errors.New("strategy: nil model database")
	}
	return NewProactiveConfig(core.Config{DB: db}, goal)
}

// NewProactiveConfig builds a PA-α strategy from an explicit allocator
// configuration — the hook for ablations (e.g. disabling the per-class
// grid bound). The RelaxQoS field is managed internally: the strategy
// always runs a strict pass first and a relaxed pass only for
// unsatisfiable requests.
func NewProactiveConfig(cfg core.Config, goal core.Goal) (*Proactive, error) {
	cfg.RelaxQoS = false
	strict, err := core.NewAllocator(cfg)
	if err != nil {
		return nil, err
	}
	cfg.RelaxQoS = true
	relaxed, err := core.NewAllocator(cfg)
	if err != nil {
		return nil, err
	}
	return &Proactive{goal: goal, strict: strict, relaxed: relaxed}, nil
}

func (p *Proactive) Name() string {
	return fmt.Sprintf("PA-%g", p.goal.Alpha)
}

// Place runs the proactive allocation. QoS guarantees gate the search:
// when some placement satisfies every bound the best such placement wins;
// when none does but the bounds are satisfiable in principle (each VM
// would meet its bound alone on an empty server), the job waits for
// completions to free QoS-compatible capacity; and when a bound is
// unsatisfiable even on an idle server, the job is placed at the best
// relaxed score — the paper's algorithm "can be relaxed by disregarding
// the QoS guarantees" — so an impossible SLA becomes one recorded
// violation instead of a starved queue.
func (p *Proactive) Place(servers []Server, vms []core.VMRequest) ([]int, bool) {
	assign, ok, _ := p.PlaceExplained(servers, vms)
	return assign, ok
}

// PlaceExplained is Place plus the decision attribution: the exact
// search tallies (summed over the strict and, when taken, the relaxed
// pass), whether the relaxed pass answered, and whether a false return
// is a deliberate QoS wait.
func (p *Proactive) PlaceExplained(servers []Server, vms []core.VMRequest) ([]int, bool, PlaceInfo) {
	var out core.Allocation
	ok, info := p.decide(vms, func(a *core.Allocator) (core.SearchStats, error) {
		var stats core.SearchStats
		var err error
		out, stats, err = a.AllocateExplained(p.goal, servers, vms)
		return stats, err
	})
	if !ok {
		return nil, false, info
	}
	assign, ok := flatten(out, vms)
	return assign, ok, info
}

// PlaceIndexed is the proactive allocation through the fleet index: the
// search reads the index's allocation classes instead of a view of
// every server, so a decision costs O(classes + VMs) and, in steady
// state, allocates nothing. Identical placements to Place on the
// index's up servers in id order.
func (p *Proactive) PlaceIndexed(idx *FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	assign, ok, _ := p.PlaceIndexedExplained(idx, vms, dst)
	return assign, ok
}

// PlaceIndexedExplained is PlaceIndexed plus the decision attribution
// PlaceExplained reports.
func (p *Proactive) PlaceIndexedExplained(idx *FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool, PlaceInfo) {
	classes := idx.Classes(len(vms) + 1)
	ok, info := p.decide(vms, func(a *core.Allocator) (core.SearchStats, error) {
		var stats core.SearchStats
		var err error
		dst, stats, err = a.AllocateClasses(p.goal, classes, vms, dst)
		return stats, err
	})
	if !ok {
		return nil, false, info
	}
	return dst, true, info
}

// decide runs the strict pass and, for a request no idle server could
// satisfy, the relaxed pass; search runs one pass on the given
// allocator and keeps its result. ok reports that the last pass
// succeeded.
func (p *Proactive) decide(vms []core.VMRequest, search func(*core.Allocator) (core.SearchStats, error)) (bool, PlaceInfo) {
	var info PlaceInfo
	stats, err := search(p.strict)
	info.Stats = stats
	if errors.Is(err, core.ErrInfeasible) {
		satisfiable := true
		for _, vm := range vms {
			if !p.strict.FitsAlone(vm) {
				satisfiable = false
				break
			}
		}
		if satisfiable {
			info.Waited = true
			return false, info // wait for QoS-compatible capacity
		}
		info.Relaxed = true
		stats, err = search(p.relaxed)
		info.Stats.Enumerated += stats.Enumerated
		info.Stats.Deduped += stats.Deduped
		info.Stats.Feasible += stats.Feasible
		info.Stats.Infeasible += stats.Infeasible
		info.Stats.Pruned += stats.Pruned
		info.Stats.Exhausted = info.Stats.Exhausted || stats.Exhausted
		info.Stats.Degraded = info.Stats.Degraded || stats.Degraded
	}
	return err == nil, info
}

// flatten converts an Allocation into the per-VM assignment slice. Each
// placed VM claims the first unclaimed request equal to it in every
// field, so requests sharing an ID (or carrying none) still place:
// requests equal in every field are interchangeable to the allocator,
// and for distinct requests the match is exact.
func flatten(out core.Allocation, vms []core.VMRequest) ([]int, bool) {
	assign := make([]int, len(vms))
	seen := make([]bool, len(vms))
	placed := 0
	for _, pl := range out.Placements {
		for _, vm := range pl.VMs {
			idx := -1
			for i := range vms {
				if !seen[i] && vms[i] == vm {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, false
			}
			seen[idx] = true
			assign[idx] = pl.ServerID
			placed++
		}
	}
	if placed != len(vms) {
		return nil, false
	}
	return assign, true
}
