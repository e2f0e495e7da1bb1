package strategy

import (
	"sync"
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

var (
	dbOnce sync.Once
	testDB *model.DB
	dbErr  error
)

func sharedDB(t *testing.T) *model.DB {
	t.Helper()
	dbOnce.Do(func() {
		cfg := campaign.DefaultConfig()
		cfg.MaxBase = 12
		cfg.FullGridTotal = 12
		testDB, _, dbErr = campaign.Run(cfg)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

func mkVMs(t *testing.T, class workload.Class, n int, qosFactor float64) []core.VMRequest {
	t.Helper()
	ref := sharedDB(t).Aux().RefTime[class]
	out := make([]core.VMRequest, n)
	for i := range out {
		out[i] = core.VMRequest{
			ID:          string(rune('a' + i)),
			Class:       class,
			NominalTime: ref,
			MaxTime:     units.Seconds(float64(ref) * qosFactor),
		}
	}
	return out
}

func mkServers(n int) []Server {
	out := make([]Server, n)
	for i := range out {
		out[i] = Server{ID: i}
	}
	return out
}

func TestFirstFitNames(t *testing.T) {
	cases := []struct {
		mult int
		want string
	}{{1, "FF"}, {2, "FF-2"}, {3, "FF-3"}}
	for _, c := range cases {
		ff, err := NewFirstFit(c.mult)
		if err != nil {
			t.Fatal(err)
		}
		if ff.Name() != c.want {
			t.Errorf("Name = %q, want %q", ff.Name(), c.want)
		}
		if ff.Cap() != c.mult*4 {
			t.Errorf("%s cap = %d, want %d", c.want, ff.Cap(), c.mult*4)
		}
	}
	if _, err := NewFirstFit(0); err == nil {
		t.Error("multiplex 0 should fail")
	}
}

func TestFirstFitFillsInOrder(t *testing.T) {
	ff, _ := NewFirstFit(1)
	servers := mkServers(3)
	vms := mkVMs(t, workload.ClassCPU, 4, 0)
	assign, ok := ff.Place(servers, vms)
	if !ok {
		t.Fatal("placement failed")
	}
	for _, a := range assign {
		if a != 0 {
			t.Errorf("FF must fill the first server first: %v", assign)
		}
	}
}

func TestFirstFitRespectsExistingAllocations(t *testing.T) {
	ff, _ := NewFirstFit(1)
	servers := mkServers(2)
	servers[0].Alloc = model.Key{NCPU: 3}
	vms := mkVMs(t, workload.ClassCPU, 3, 0)
	assign, ok := ff.Place(servers, vms)
	if !ok {
		t.Fatal("placement failed")
	}
	// Server 0 has one slot; remaining two must spill to server 1.
	if assign[0] != 0 || assign[1] != 1 || assign[2] != 1 {
		t.Errorf("assign = %v", assign)
	}
}

func TestFirstFitQueuesWhenFull(t *testing.T) {
	ff, _ := NewFirstFit(1)
	servers := mkServers(1)
	servers[0].Alloc = model.Key{NCPU: 4}
	if _, ok := ff.Place(servers, mkVMs(t, workload.ClassCPU, 1, 0)); ok {
		t.Error("full cloud should refuse placement")
	}
	// FF-2 doubles the slots and accepts.
	ff2, _ := NewFirstFit(2)
	if _, ok := ff2.Place(servers, mkVMs(t, workload.ClassCPU, 1, 0)); !ok {
		t.Error("FF-2 should multiplex")
	}
}

func TestFirstFitAllOrNothing(t *testing.T) {
	ff, _ := NewFirstFit(1)
	servers := mkServers(1)
	servers[0].Alloc = model.Key{NCPU: 2}
	// 3 VMs need 3 slots; only 2 remain.
	if _, ok := ff.Place(servers, mkVMs(t, workload.ClassCPU, 3, 0)); ok {
		t.Error("partial placement must not happen")
	}
}

func TestBestFitPrefersFullest(t *testing.T) {
	bf := &BestFit{Multiplex: 1}
	servers := mkServers(3)
	servers[1].Alloc = model.Key{NCPU: 3}
	servers[2].Alloc = model.Key{NCPU: 1}
	assign, ok := bf.Place(servers, mkVMs(t, workload.ClassCPU, 1, 0))
	if !ok || assign[0] != 1 {
		t.Errorf("best fit chose %v, want server 1", assign)
	}
	if bf.Name() != "BF-1" {
		t.Errorf("Name = %q", bf.Name())
	}
	for _, mult := range []int{0, -1} {
		if _, err := NewBestFit(mult); err == nil {
			t.Errorf("NewBestFit(%d) should fail", mult)
		}
	}
	if bf, err := NewBestFit(2); err != nil || bf.Name() != "BF-2" {
		t.Errorf("NewBestFit(2) = %v, %v", bf, err)
	}
}

func TestProactiveName(t *testing.T) {
	for _, c := range []struct {
		goal core.Goal
		want string
	}{
		{core.GoalEnergy, "PA-1"},
		{core.GoalPerformance, "PA-0"},
		{core.GoalBalanced, "PA-0.5"},
	} {
		p, err := NewProactive(sharedDB(t), c.goal)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != c.want {
			t.Errorf("Name = %q, want %q", p.Name(), c.want)
		}
	}
	if _, err := NewProactive(nil, core.GoalEnergy); err == nil {
		t.Error("nil DB should fail")
	}
}

func TestProactivePlacesAllVMs(t *testing.T) {
	p, err := NewProactive(sharedDB(t), core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	servers := mkServers(4)
	vms := mkVMs(t, workload.ClassMEM, 4, 3)
	assign, ok := p.Place(servers, vms)
	if !ok {
		t.Fatal("placement failed")
	}
	if len(assign) != len(vms) {
		t.Fatalf("assign len = %d", len(assign))
	}
	for _, a := range assign {
		if a < 0 || a >= len(servers) {
			t.Fatalf("bad server id %d", a)
		}
	}
}

func TestProactiveQueuesUnderPressure(t *testing.T) {
	p, err := NewProactiveConfig(core.Config{DB: sharedDB(t), MaxVMsPerServer: 6}, core.GoalEnergy)
	if err != nil {
		t.Fatal(err)
	}
	// All servers loaded to the cap: placement must wait.
	servers := mkServers(2)
	servers[0].Alloc = model.Key{NCPU: 6}
	servers[1].Alloc = model.Key{NMEM: 6}
	if _, ok := p.Place(servers, mkVMs(t, workload.ClassCPU, 2, 3)); ok {
		t.Error("saturated cloud should queue the job")
	}
}

func TestProactiveForcePlacesUnsatisfiableQoS(t *testing.T) {
	p, err := NewProactive(sharedDB(t), core.GoalEnergy)
	if err != nil {
		t.Fatal(err)
	}
	servers := mkServers(2)
	vms := mkVMs(t, workload.ClassCPU, 1, 0.1) // impossible bound
	assign, ok := p.Place(servers, vms)
	if !ok {
		t.Fatal("unsatisfiable QoS must be force-placed, not starved")
	}
	if len(assign) != 1 {
		t.Fatalf("assign = %v", assign)
	}
}

func TestProactiveEnergyConsolidatesAcrossJobs(t *testing.T) {
	p, err := NewProactive(sharedDB(t), core.GoalEnergy)
	if err != nil {
		t.Fatal(err)
	}
	servers := mkServers(3)
	servers[2].Alloc = model.Key{NIO: 2}
	assign, ok := p.Place(servers, mkVMs(t, workload.ClassIO, 1, 0))
	if !ok {
		t.Fatal("placement failed")
	}
	if assign[0] != 2 {
		t.Errorf("energy goal placed on %d, want warm server 2", assign[0])
	}
}

func TestStrategiesImplementInterface(t *testing.T) {
	ff, _ := NewFirstFit(1)
	pa, err := NewProactive(sharedDB(t), core.GoalEnergy)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{ff, &BestFit{Multiplex: 2}, pa} {
		if s.Name() == "" {
			t.Error("strategy with empty name")
		}
		// The simulator places through the fleet index only.
		if _, ok := s.(IndexedPlacer); !ok {
			t.Errorf("%s does not implement IndexedPlacer", s.Name())
		}
	}
}

func TestEmptyVMListRefused(t *testing.T) {
	ff, _ := NewFirstFit(1)
	if _, ok := ff.Place(mkServers(1), nil); ok {
		t.Error("empty VM list should be refused")
	}
}
