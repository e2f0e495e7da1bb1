// Package migrate implements reactive consolidation through live VM
// migration — the *dynamic* placement family the paper contrasts its
// proactive approach with (Sect. II: "the variations in VM's utilization
// requirements are handled through live VM migrations", refs [2],[3],
// [6]-[8]; the authors' own earlier work is reactive thermal migration).
//
// The planner watches the cloud drift out of shape as jobs complete and
// proposes migration plans that drain lightly-loaded servers onto
// compatible peers so the drained servers can power down, pricing every
// move with the same model database the proactive allocator uses and
// honoring the same QoS bounds plus a per-move migration cost. Combined
// with internal/cloudsim's Consolidator hook it reproduces the classic
// "first-fit placement + periodic consolidation" baseline the related
// work describes — and lets the repository quantify the paper's claim
// that proactive placement "avoid[s] costly VM migrations".
package migrate

import (
	"errors"
	"fmt"
	"sort"

	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// VM is a live, migratable VM.
type VM struct {
	ID     string
	Class  workload.Class
	Server int // index into the server slice handed to the planner
	// Remaining is the VM's remaining work expressed as solo-execution
	// seconds on the reference server.
	Remaining units.Seconds
	// Budget is the wall-clock time the VM may still take without
	// violating its deadline; zero means unconstrained.
	Budget units.Seconds
}

// Move relocates one VM.
type Move struct {
	VMID     string
	From, To int
}

// Plan is a consolidation proposal.
type Plan struct {
	Moves []Move
	// PowerBefore and PowerAfter are the cloud's aggregate power draw
	// under the model database before and after applying the plan.
	PowerBefore, PowerAfter units.Watts
	// ServersDrained counts servers the plan empties.
	ServersDrained int
	// MigrationCost is what each moved VM pays as additional nominal
	// work when the plan is applied (Planner.MigrationCost).
	MigrationCost units.Seconds
}

// Gain is the aggregate power reduction.
func (p Plan) Gain() units.Watts { return p.PowerBefore - p.PowerAfter }

// Planner builds consolidation plans.
type Planner struct {
	// DB is the model database used to price allocations.
	DB *model.DB
	// MigrationCost is the wall-clock penalty a migrated VM pays
	// (stop-and-copy downtime plus dirty-page slowdown, amortized).
	MigrationCost units.Seconds
}

// Validate checks the planner configuration.
func (pl *Planner) Validate() error {
	if pl.DB == nil {
		return errors.New("migrate: nil model database")
	}
	if pl.MigrationCost < 0 {
		return errors.New("migrate: negative migration cost")
	}
	return nil
}

// serverPower prices one server's draw (0 when empty — a drained server
// powers down; that is the point of consolidating).
func (pl *Planner) serverPower(alloc model.Key) (units.Watts, error) {
	if alloc.IsZero() {
		return 0, nil
	}
	rec, err := pl.DB.Estimate(alloc)
	if err != nil {
		return 0, err
	}
	return rec.AvgPower(), nil
}

// Propose builds a consolidation plan for the given cloud state. vms
// must be consistent with allocs (each VM's Server in range, per-server
// class counts matching). The plan is greedy: donors are scanned from
// the lightest-loaded active server, and a donor is drained only if
// every one of its VMs can move to some other active server without
// violating capacity, per-class bounds, or any affected VM's deadline
// budget.
func (pl *Planner) Propose(allocs []model.Key, vms []VM) (Plan, error) {
	if err := pl.Validate(); err != nil {
		return Plan{}, err
	}
	if err := checkConsistent(allocs, vms); err != nil {
		return Plan{}, err
	}

	cur := append([]model.Key(nil), allocs...)
	byServer := make(map[int][]VM, len(cur))
	for _, vm := range vms {
		byServer[vm.Server] = append(byServer[vm.Server], vm)
	}
	before, err := pl.totalPower(cur)
	if err != nil {
		return Plan{}, err
	}

	plan := Plan{PowerBefore: before, MigrationCost: pl.MigrationCost}

	// Donor order: fewest resident VMs first (cheapest to drain).
	active := make([]int, 0, len(cur))
	for i, a := range cur {
		if !a.IsZero() {
			active = append(active, i)
		}
	}
	sort.Slice(active, func(i, j int) bool {
		ti, tj := cur[active[i]].Total(), cur[active[j]].Total()
		if ti != tj {
			return ti < tj
		}
		return active[i] < active[j]
	})

	drained := map[int]bool{}
	for _, donor := range active {
		moves, ok := pl.drain(donor, cur, byServer, drained)
		if !ok {
			continue
		}
		// Commit.
		for _, mv := range moves {
			vm := takeVM(byServer, mv.From, mv.VMID)
			if vm == nil {
				return Plan{}, fmt.Errorf("migrate: internal bookkeeping lost VM %q", mv.VMID)
			}
			vm.Server = mv.To
			byServer[mv.To] = append(byServer[mv.To], *vm)
			cur[mv.From] = cur[mv.From].Add(model.KeyFor(vm.Class, -1))
			cur[mv.To] = cur[mv.To].Add(model.KeyFor(vm.Class, 1))
		}
		plan.Moves = append(plan.Moves, moves...)
		plan.ServersDrained++
		drained[donor] = true
	}

	after, err := pl.totalPower(cur)
	if err != nil {
		return Plan{}, err
	}
	plan.PowerAfter = after
	// A plan that moves nothing or raises the cloud's draw is not
	// emitted.
	if plan.Gain() < 0 || len(plan.Moves) == 0 {
		return Plan{PowerBefore: before, PowerAfter: before}, nil
	}
	return plan, nil
}

// drain tries to re-home every VM of donor onto other active servers.
func (pl *Planner) drain(donor int, cur []model.Key, byServer map[int][]VM, drained map[int]bool) ([]Move, bool) {
	trial := append([]model.Key(nil), cur...)
	residents := append([]VM(nil), byServer[donor]...)
	// Move the heaviest class first for better packing stability.
	sort.SliceStable(residents, func(i, j int) bool { return residents[i].Class < residents[j].Class })
	var moves []Move
	for _, vm := range residents {
		target := -1
		for t := range trial {
			if t == donor || trial[t].IsZero() || drained[t] {
				continue // only consolidate onto servers that stay on
			}
			next := trial[t].Add(model.KeyFor(vm.Class, 1))
			// Per-class residency stays within the database's optimal
			// scenario, as in the proactive allocator.
			if next.Count(vm.Class) > pl.DB.Aux().OS(vm.Class) {
				continue
			}
			if !pl.qosOK(vm, next) {
				continue
			}
			if !pl.residentsOK(byServer[t], next) {
				continue
			}
			target = t
			break
		}
		if target < 0 {
			return nil, false
		}
		trial[target] = trial[target].Add(model.KeyFor(vm.Class, 1))
		moves = append(moves, Move{VMID: vm.ID, From: donor, To: target})
	}
	return moves, true
}

// qosOK checks whether a migrated VM still meets its deadline budget on
// the target allocation, paying the migration cost.
func (pl *Planner) qosOK(vm VM, target model.Key) bool {
	if vm.Budget <= 0 {
		return true
	}
	est, ok := pl.estimate(vm.Class, vm.Remaining, target)
	if !ok {
		return false
	}
	return est+pl.MigrationCost <= vm.Budget
}

// residentsOK checks the target's current residents keep their budgets
// under the new allocation (they do not pay the migration cost).
func (pl *Planner) residentsOK(residents []VM, target model.Key) bool {
	for _, r := range residents {
		if r.Budget <= 0 {
			continue
		}
		est, ok := pl.estimate(r.Class, r.Remaining, target)
		if !ok || est > r.Budget {
			return false
		}
	}
	return true
}

// estimate converts remaining solo work into wall time under an
// allocation.
func (pl *Planner) estimate(c workload.Class, remaining units.Seconds, alloc model.Key) (units.Seconds, bool) {
	rec, err := pl.DB.Estimate(alloc)
	if err != nil {
		return 0, false
	}
	ref := pl.DB.Aux().RefTime[c]
	if ref <= 0 {
		return 0, false
	}
	return rec.ClassTime(c) * remaining / ref, true
}

func (pl *Planner) totalPower(allocs []model.Key) (units.Watts, error) {
	var total units.Watts
	for _, a := range allocs {
		p, err := pl.serverPower(a)
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total, nil
}

func takeVM(byServer map[int][]VM, server int, id string) *VM {
	list := byServer[server]
	for i := range list {
		if list[i].ID == id {
			vm := list[i]
			byServer[server] = append(list[:i], list[i+1:]...)
			return &vm
		}
	}
	return nil
}

func checkConsistent(allocs []model.Key, vms []VM) error {
	counts := make([]model.Key, len(allocs))
	seen := map[string]bool{}
	for _, vm := range vms {
		if vm.Server < 0 || vm.Server >= len(allocs) {
			return fmt.Errorf("migrate: VM %q on unknown server %d", vm.ID, vm.Server)
		}
		if !vm.Class.Valid() {
			return fmt.Errorf("migrate: VM %q has invalid class", vm.ID)
		}
		if vm.Remaining < 0 || vm.Budget < 0 {
			return fmt.Errorf("migrate: VM %q has negative remaining/budget", vm.ID)
		}
		if seen[vm.ID] {
			return fmt.Errorf("migrate: duplicate VM id %q", vm.ID)
		}
		seen[vm.ID] = true
		counts[vm.Server] = counts[vm.Server].Add(model.KeyFor(vm.Class, 1))
	}
	for i := range allocs {
		if counts[i] != allocs[i] {
			return fmt.Errorf("migrate: server %d allocation %v does not match resident VMs %v", i, allocs[i], counts[i])
		}
	}
	return nil
}
