package cloudsim

import (
	"testing"
	"testing/quick"

	"pacevm/internal/core"
	"pacevm/internal/rng"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// randomReqs builds a random-but-valid request stream.
func randomReqs(t *testing.T, seed uint64, n int) []trace.Request {
	t.Helper()
	db := sharedDB(t)
	r := rng.New(seed)
	reqs := make([]trace.Request, n)
	var at units.Seconds
	for i := range reqs {
		at += units.Seconds(r.Exp(120))
		class := workload.Classes[r.Intn(workload.NumClasses)]
		nominal := db.Aux().RefTime[class] * units.Seconds(r.Uniform(0.2, 2.5))
		reqs[i] = trace.Request{
			ID:          i + 1,
			Submit:      at,
			Class:       class,
			VMs:         r.IntBetween(1, 4),
			NominalTime: nominal,
			MaxResponse: nominal * units.Seconds(r.Uniform(1.5, 4)),
		}
	}
	return reqs
}

// TestSimulationInvariantsUnderRandomWorkloads drives random workloads
// through random strategies and checks structural invariants that must
// hold regardless of input: all VMs finish, counters are consistent,
// causality holds, and energy is bounded below by the work's minimum
// possible draw.
func TestSimulationInvariantsUnderRandomWorkloads(t *testing.T) {
	db := sharedDB(t)
	f := func(seed uint64, stratRaw, serversRaw uint8) bool {
		servers := int(serversRaw%6) + 2
		reqs := randomReqs(t, seed, 40)
		var st strategy.Strategy
		switch stratRaw % 4 {
		case 0:
			st, _ = strategy.NewFirstFit(1)
		case 1:
			st, _ = strategy.NewFirstFit(3)
		case 2:
			st = &strategy.BestFit{Multiplex: 2}
		default:
			var err error
			st, err = strategy.NewProactive(db, core.GoalBalanced, 0)
			if err != nil {
				return false
			}
		}
		res, err := Run(Config{
			DB: db, Servers: servers, Strategy: st,
			IdleServerPower: -1, RecordVMs: true,
		}, reqs)
		if err != nil {
			t.Logf("seed %d strategy %s: %v", seed, st.Name(), err)
			return false
		}
		wantVMs := 0
		for _, r := range reqs {
			wantVMs += r.VMs
		}
		if res.TotalVMs != wantVMs || len(res.VMs) != wantVMs {
			return false
		}
		if res.Violations > res.TotalVMs || res.Violations < 0 {
			return false
		}
		if res.Makespan <= 0 || res.Energy <= 0 {
			return false
		}
		if res.PeakActiveServers < 1 || res.PeakActiveServers > servers {
			return false
		}
		for _, vm := range res.VMs {
			if vm.Placed < vm.Submit || vm.Completion < vm.Placed {
				return false
			}
			if vm.Server < 0 || vm.Server >= servers {
				return false
			}
			if vm.Violated != (vm.Deadline > 0 && vm.Completion > vm.Deadline) {
				return false
			}
		}
		// Energy lower bound: the busiest possible accounting cannot be
		// below 125 W (the idle floor inside every hosting record) over
		// the actual hosted time.
		if res.Energy < units.Watts(125).Times(units.Seconds(res.ActiveServerSeconds))-1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestNoOverlapBeyondAdmission verifies the simulator's admission check:
// a strategy that tries to overfill a server is refused without state
// corruption.
type overfillStrategy struct{}

func (overfillStrategy) Name() string { return "OVERFILL" }
func (overfillStrategy) Place(servers []strategy.Server, vms []core.VMRequest) ([]int, bool) {
	// Everything onto server 0, always.
	out := make([]int, len(vms))
	for i := range out {
		out[i] = servers[0].ID
	}
	return out, true
}
func (overfillStrategy) PlaceIndexed(_ *strategy.FleetIndex, vms []core.VMRequest, _ []int) ([]int, bool) {
	return make([]int, len(vms)), true // everything onto server 0
}

func TestNoOverlapBeyondAdmission(t *testing.T) {
	db := sharedDB(t)
	ref := db.Aux().RefTime[workload.ClassCPU]
	// 20 one-VM jobs at once, all aimed at server 0: the 17th placement
	// would exceed the 16-VM admission limit, so the simulator must make
	// the excess wait for completions instead of overfilling.
	reqs := make([]trace.Request, 20)
	for i := range reqs {
		reqs[i] = trace.Request{ID: i + 1, Submit: 0, Class: workload.ClassCPU, VMs: 1,
			NominalTime: ref, MaxResponse: ref * 100}
	}
	res, err := Run(Config{DB: db, Servers: 2, Strategy: overfillStrategy{}, RecordVMs: true}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalVMs != 20 {
		t.Fatalf("completed %d VMs", res.TotalVMs)
	}
	waited := 0
	for _, vm := range res.VMs {
		if vm.Server != 0 {
			t.Fatalf("VM escaped to server %d", vm.Server)
		}
		if vm.Placed > vm.Submit {
			waited++
		}
	}
	if waited < 4 {
		t.Errorf("only %d VMs waited; admission limit not enforced", waited)
	}
	if res.PeakActiveServers != 1 {
		t.Errorf("peak active servers = %d, want 1", res.PeakActiveServers)
	}
}
