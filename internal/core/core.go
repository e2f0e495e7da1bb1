// Package core implements the paper's contribution: the proactive,
// application-centric, energy-aware VM allocation algorithm of Sect.
// III.D (Fig. 3).
//
// Given (i) the model database built by the benchmarking campaign,
// (ii) the auxiliary base-test values, (iii) a set of VMs with their
// application profiles and maximum execution times (QoS guarantees), and
// (iv) an optimization goal α — α weighting energy and 1−α weighting
// performance — the allocator searches the set partitions of the VM set
// (in the restricted-growth-string order of internal/partition), places
// each block of each partition on the best server given the servers'
// current allocations, prices every candidate through model-database
// lookups, and returns the partition/placement that best matches the
// goal while satisfying the QoS constraints.
//
// Following the paper, ties between equally ranked candidates select "the
// first server of the list", and the whole search is deliberately brute
// force — the paper chose exhaustive search "to demonstrate and study the
// potential of application-centric proactive VM allocation". Exact
// reductions keep the brute force cheap (see search.go): only partitions
// whose block structure differs up to interchangeable VMs (same class,
// nominal time and QoS bound) are generated, each once; servers come grouped
// into classes of identical current allocation — kept by the caller's
// fleet index (AllocateClasses), or grouped once per call from a server
// list (Allocate) — so each block considers the first untouched server
// of every class plus the servers the partition already touched instead
// of scanning the fleet; each block composition is priced once per class
// into a row of admissible options; and
// candidates are pruned online to the Pareto frontier the α-monotone
// score selects from. All of it is bit-for-bit equivalent to a literal
// transcription of Sect. III.D that the package's tests keep as their
// oracle.
package core

import (
	"errors"
	"fmt"
	"sync"

	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// ErrInfeasible is returned when no partition/placement satisfies the
// QoS constraints on the given servers.
var ErrInfeasible = errors.New("core: no feasible allocation")

// VMRequest describes one VM to place.
type VMRequest struct {
	// ID identifies the VM for the caller (job id + index, typically).
	ID string
	// Class is the application profile from the profiler, "specified by
	// the user in the job definition" per Sect. III.A's assumption.
	Class workload.Class
	// NominalTime is the application's solo execution time on the
	// reference server; database times are scaled by
	// NominalTime/RefTime(Class) to price this particular VM.
	NominalTime units.Seconds
	// MaxTime is the QoS guarantee: the maximum acceptable execution
	// time. Zero means unconstrained.
	MaxTime units.Seconds
}

func (v VMRequest) validate() error {
	if !v.Class.Valid() {
		return fmt.Errorf("core: VM %q has invalid class", v.ID)
	}
	if v.NominalTime <= 0 {
		return fmt.Errorf("core: VM %q has non-positive nominal time", v.ID)
	}
	if v.MaxTime < 0 {
		return fmt.Errorf("core: VM %q has negative QoS bound", v.ID)
	}
	return nil
}

// ServerState is a server's identity and current resident allocation.
type ServerState struct {
	ID    int
	Alloc model.Key
}

// Goal is the optimization goal: Alpha ∈ [0,1] weights energy
// minimization, 1−Alpha weights execution-time minimization (Sect.
// III.D). The paper's evaluated variants are PA-1 (energy), PA-0
// (performance) and PA-0.5 (tradeoff).
type Goal struct {
	Alpha float64
}

// The paper's evaluated goals.
var (
	GoalEnergy      = Goal{Alpha: 1}
	GoalPerformance = Goal{Alpha: 0}
	GoalBalanced    = Goal{Alpha: 0.5}
)

func (g Goal) validate() error {
	if g.Alpha < 0 || g.Alpha > 1 {
		return fmt.Errorf("core: alpha %v out of [0,1]", g.Alpha)
	}
	return nil
}

// Config parameterizes an Allocator.
type Config struct {
	// DB is the model database.
	DB *model.DB
	// MaxVMsPerServer caps any server's resident VM count after
	// placement. Zero defaults to the database grid bound; values above
	// 2^21 are rejected.
	MaxVMsPerServer int
	// RelaxQoS disregards the QoS guarantees, "which might not be
	// acceptable for a production system" (Sect. III.D) but is needed to
	// make progress when a request can never meet its bound.
	RelaxQoS bool
	// PerClassBound caps the per-class VM count a server may reach after
	// placement. A zero entry defaults to the class's optimal scenario
	// OS = max(OSP, OSE) from the auxiliary base-test data — the paper's
	// combined-test grid is bounded exactly there (Sect. III.B), so its
	// allocator can never consolidate a class beyond its measured
	// optimum. A negative entry disables the bound for that class
	// (useful for ablations).
	PerClassBound [workload.NumClasses]int
	// SearchBudget bounds the exhaustive search: at most this many
	// distinct partitions are scored per Allocate call. Zero (the
	// default) or negative means unlimited — the paper's behaviour, and
	// the setting under which Allocate stays bit-identical to the
	// literal transcription the tests keep as their oracle, which has no
	// budget. When the budget exhausts before the enumeration
	// completes, Allocate abandons the partial search and degrades to a
	// deterministic first-fit placement (SearchStats.Degraded), so a
	// budgeted allocator always answers in bounded work. The budget
	// counts scored candidates, not wall clock, so budgeted runs stay
	// exactly replayable.
	SearchBudget int
	// Cancel, when non-nil, is polled by the enumeration between
	// partitions; a true return abandons the search
	// exactly as budget exhaustion does — the partial frontier is
	// discarded and Allocate degrades to the deterministic first-fit
	// fallback (SearchStats.Degraded). This is the
	// per-request timeout hook for long-running callers (the placement
	// service arms it with a deadline check); it is the one deliberate
	// determinism relaxation in the allocator — where the cut lands
	// depends on wall clock, but every outcome is still one of two
	// well-defined results: the full search's answer or the first-fit
	// degradation. Nil (the default, and the only setting batch
	// simulations use) keeps Allocate bit-identical to the tests'
	// oracle.
	Cancel func() bool
	// Obs receives search telemetry (partitions enumerated/deduplicated,
	// Pareto prunes, estimate-cache hit rates).
	// Nil — the default — disables it at zero cost: every instrument
	// handle resolves to a nil no-op and the search neither allocates
	// for nor branches into telemetry beyond a nil check. Counter names
	// are documented in internal/obs and DESIGN.md §4.
	Obs *obs.Registry
}

// Allocator runs the paper's allocation algorithm. It is safe for
// concurrent use.
type Allocator struct {
	cfg Config
	// refTime is the database's per-class reference time (Aux.RefTime),
	// resolved once so the search's pricing reads it without copying
	// the auxiliary record.
	refTime [workload.NumClasses]units.Seconds
	tel     searchTelemetry
	// scratch recycles the per-call search state (*searchCtx), so a
	// steady stream of decisions allocates nothing.
	scratch sync.Pool
}

// NewAllocator validates the configuration and returns an allocator.
func NewAllocator(cfg Config) (*Allocator, error) {
	if cfg.DB == nil {
		return nil, errors.New("core: nil model database")
	}
	if cfg.MaxVMsPerServer < 0 {
		return nil, errors.New("core: negative MaxVMsPerServer")
	}
	if cfg.MaxVMsPerServer > maxPackedCount {
		return nil, fmt.Errorf("core: MaxVMsPerServer above %d", maxPackedCount)
	}
	if cfg.MaxVMsPerServer == 0 {
		m := cfg.DB.MaxKey()
		cfg.MaxVMsPerServer = max(m.NCPU, m.NMEM, m.NIO)
	}
	aux := cfg.DB.Aux()
	for _, c := range workload.Classes {
		switch {
		case cfg.PerClassBound[c] == 0:
			cfg.PerClassBound[c] = aux.OS(c)
		case cfg.PerClassBound[c] < 0:
			cfg.PerClassBound[c] = cfg.MaxVMsPerServer
		}
	}
	a := &Allocator{cfg: cfg, refTime: aux.RefTime, tel: newSearchTelemetry(cfg.Obs)}
	a.scratch.New = func() any { return new(searchCtx) }
	return a, nil
}

// countLookups adds estimate-memo hits and misses to the model-cache
// counters, and on a miss sets the size gauge to the memo's key count.
func (a *Allocator) countLookups(hits, misses int64) {
	a.tel.cacheHits.Add(hits)
	if misses > 0 {
		a.tel.cacheMisses.Add(misses)
		a.tel.cacheSize.SetMax(int64(a.cfg.DB.MemoSize()))
	}
}

// Placement is one block of the chosen partition assigned to a server.
type Placement struct {
	ServerID int
	VMs      []VMRequest
	// NewAlloc is the server's allocation after the block arrives.
	NewAlloc model.Key
	// EstTime is the estimated execution time of the block (the slowest
	// VM in it under the new allocation).
	EstTime units.Seconds
}

// Allocation is the algorithm's output: "a set of partitions and
// allocations of the VMs in the servers".
type Allocation struct {
	Placements []Placement
	// EstTime is the estimated execution time of the whole request (max
	// over placements).
	EstTime units.Seconds
	// EstEnergy is the total marginal energy over placements: each
	// block's server power increase (including the 125 W activation cost
	// of a powered-down server) integrated over the block's estimated
	// time.
	EstEnergy units.Joules
}

// EstimateVM prices one VM of the given request under an allocation: the
// database's per-class time under alloc, scaled to the VM's nominal
// length.
func (a *Allocator) EstimateVM(alloc model.Key, vm VMRequest) (units.Seconds, error) {
	if err := vm.validate(); err != nil {
		return 0, err
	}
	p, hit := a.cfg.DB.Price(alloc)
	if hit {
		a.countLookups(1, 0)
	} else {
		a.countLookups(0, 1)
	}
	if p.Err != nil {
		return 0, p.Err
	}
	return p.Rec.ClassTime(vm.Class) * vm.NominalTime / a.refTime[vm.Class], nil
}

// FitsAlone reports whether the VM meets its QoS bound when placed alone
// on an empty server — if not, no allocation can ever satisfy it.
func (a *Allocator) FitsAlone(vm VMRequest) bool {
	if vm.MaxTime <= 0 {
		return true
	}
	est, err := a.EstimateVM(model.KeyFor(vm.Class, 1), vm)
	return err == nil && est <= vm.MaxTime
}

// SearchStats summarizes the partition search behind one Allocate call:
// how many set partitions a walk over all of them would have produced
// up to where the search stopped, how many of those repeat an earlier
// typed partition (the search generates only the others), how the
// scored candidates split into feasible /
// infeasible / Pareto-pruned, and whether the budget exhausted into the
// first-fit degradation. The counts are exact (plain integers local to
// the call, not sampled registry counters), so a flight recorder can
// attribute them to the single placement decision they belong to.
type SearchStats struct {
	Enumerated int
	Deduped    int
	Feasible   int
	Infeasible int
	Pruned     int
	Exhausted  bool
	Degraded   bool
}

// Allocate runs the partition search and returns the best allocation
// for the goal, or ErrInfeasible when no candidate satisfies QoS.
//
// The search is still the paper's exhaustive one, accelerated by exact
// reductions only: only the distinct typed partitions are generated,
// each once and in the order a walk over every set partition first
// meets it (the list is memoized per VM type pattern), each block
// composition is priced once per server class, and dominated
// candidates are discarded online (the α-weighted score is monotone in
// both estimated time and energy, so the winner always lies on the
// Pareto frontier). Every reduction preserves the enumeration-order
// tie-breaks, so the result is bit-for-bit identical to that of a
// literal transcription of Sect. III.D, which the package's tests keep
// as their oracle.
//
// With a positive Config.SearchBudget the enumeration may stop early;
// Allocate then degrades to the deterministic first-fit fallback and
// AllocateExplained's SearchStats.Degraded reports it (see degrade.go).
func (a *Allocator) Allocate(goal Goal, servers []ServerState, vms []VMRequest) (Allocation, error) {
	out, _, err := a.AllocateExplained(goal, servers, vms)
	return out, err
}

// AllocateExplained is Allocate plus the per-call SearchStats — the
// decision-attribution variant the simulator's flight recorder consumes.
// The returned Allocation is identical to Allocate's; the stats are
// meaningful even on an ErrInfeasible return (they describe the search
// that proved infeasibility).
func (a *Allocator) AllocateExplained(goal Goal, servers []ServerState, vms []VMRequest) (Allocation, SearchStats, error) {
	if err := validateGoalVMs(goal, len(servers), vms); err != nil {
		return Allocation{}, SearchStats{}, err
	}
	sc := a.acquire(goal, vms)
	defer a.release(sc)
	if err := sc.groupServers(servers); err != nil {
		return Allocation{}, SearchStats{}, err
	}
	c, err := sc.decide()
	if err != nil {
		return Allocation{}, sc.stats, err
	}
	return sc.materialize(c), sc.stats, nil
}

// AllocateClasses runs the same search as AllocateExplained over a
// fleet the caller keeps grouped into classes of identical allocation
// (a capacity index, say), so a decision costs O(classes + VMs) rather
// than a pass over every server, and a steady stream of decisions
// allocates nothing. Each class lists server IDs in ascending order —
// at least its lowest len(vms)+1 members, or all of them if fewer —
// member sets are disjoint, and the classes come in strictly ascending
// order of their lowest member (the order a fleet index that keeps its
// classes sorted hands out; the search merges candidates on it rather
// than sorting them). Server IDs then play the part of list positions,
// so the result equals AllocateExplained's on the servers listed in
// ascending ID order. Classes out of order, or members out of order
// within the prefix the search reads, are an error. Classes too full
// to host a VM may be included; the search skips them.
//
// The assignment is written by VM index into dst when it is long
// enough (the returned slice aliases it) and into a fresh slice
// otherwise.
func (a *Allocator) AllocateClasses(goal Goal, classes []ServerClass, vms []VMRequest, dst []int) ([]int, SearchStats, error) {
	if err := validateGoalVMs(goal, len(classes), vms); err != nil {
		return nil, SearchStats{}, err
	}
	sc := a.acquire(goal, vms)
	defer a.release(sc)
	if err := sc.useClasses(classes); err != nil {
		return nil, SearchStats{}, err
	}
	c, err := sc.decide()
	if err != nil {
		return nil, sc.stats, err
	}
	return sc.assign(c, dst), sc.stats, nil
}

// validateGoalVMs checks the goal, the fleet's presence and the VM
// requests; server allocations are checked where the servers are
// grouped.
func validateGoalVMs(goal Goal, nServers int, vms []VMRequest) error {
	if err := goal.validate(); err != nil {
		return err
	}
	if nServers == 0 {
		return errors.New("core: no servers")
	}
	if len(vms) == 0 {
		return errors.New("core: no VMs to place")
	}
	for _, vm := range vms {
		if err := vm.validate(); err != nil {
			return err
		}
	}
	return nil
}

// scoreEpsilon is the tolerance of every α-weighted score comparison.
// Normalized scores live in [0,1], where float64 spacing is ≈2.2e-16;
// 1e-12 is ~4 orders of magnitude above the rounding noise the two
// multiply-adds of a score can accumulate, yet far below any difference
// the model database can produce between genuinely distinct outcomes.
// Candidates whose scores differ by less than it are therefore treated
// as tied, and the tie goes to the earlier enumeration index — the
// paper's "first server of the list" rule, lifted from servers to whole
// candidates. The strict `score < best-scoreEpsilon` form (rather than
// `score <= best+scoreEpsilon`) is what makes the scan keep the
// incumbent on a tie.
const scoreEpsilon = 1e-12

// pickBest selects, from candidates ordered by enumeration index, the
// minimum α-weighted score after max-normalizing times and energies,
// keeping the earliest candidate on ties (see scoreEpsilon). maxT and
// maxE must be the maxima over every feasible candidate of the search —
// not merely over the retained frontier — so normalization matches the
// unpruned enumeration exactly. It returns the winning index into
// cands.
func pickBest(goal Goal, cands []candidate, maxT units.Seconds, maxE units.Joules) int {
	bestScore := 0.0
	bestIdx := -1
	for i := range cands {
		tn, en := 0.0, 0.0
		if maxT > 0 {
			tn = float64(cands[i].time) / float64(maxT)
		}
		if maxE > 0 {
			en = float64(cands[i].energy) / float64(maxE)
		}
		score := goal.Alpha*en + (1-goal.Alpha)*tn
		if bestIdx < 0 || score < bestScore-scoreEpsilon {
			bestScore, bestIdx = score, i
		}
	}
	return bestIdx
}
