package pacevm

// End-to-end integration tests: the full pipeline from benchmarking
// campaign through CSV persistence, trace preprocessing, allocation and
// datacenter simulation — the paths a downstream user strings together.

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/model"
	"pacevm/internal/strategy"
	"pacevm/internal/swf"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

var (
	intOnce sync.Once
	intDB   *model.DB
	intErr  error
)

func integrationDB(t *testing.T) *model.DB {
	t.Helper()
	intOnce.Do(func() {
		cfg := campaign.DefaultConfig()
		cfg.FullGridTotal = 16
		intDB, _, intErr = campaign.Run(cfg)
	})
	if intErr != nil {
		t.Fatal(intErr)
	}
	return intDB
}

// TestPipelineCampaignToSimulation is the canonical end-to-end flow:
// build the model, persist it to CSV files, reload it, and drive a full
// simulation with the reloaded database.
func TestPipelineCampaignToSimulation(t *testing.T) {
	db := integrationDB(t)

	dir := t.TempDir()
	mainPath := filepath.Join(dir, "model.csv")
	auxPath := filepath.Join(dir, "aux.csv")
	var mainBuf, auxBuf bytes.Buffer
	if err := db.WriteCSV(&mainBuf); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteAuxCSV(&auxBuf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mainPath, mainBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(auxPath, auxBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(mainPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	af, err := os.Open(auxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer af.Close()
	reloaded, err := model.ReadCSV(mf, af)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != db.Len() {
		t.Fatalf("reloaded %d records, want %d", reloaded.Len(), db.Len())
	}

	// Trace: generate, persist as SWF, re-parse, preprocess.
	gcfg := trace.DefaultGenConfig(5)
	gcfg.Jobs = 400
	tr, err := trace.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var swfBuf bytes.Buffer
	if err := swf.Write(&swfBuf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := swf.Parse(&swfBuf)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(5)
	pcfg.TargetVMs = 600
	reqs, rep, err := trace.Prepare(tr2, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalVMs < 600 {
		t.Fatalf("trace too small: %d VMs", rep.TotalVMs)
	}

	// Simulate with the reloaded database.
	pa, err := strategy.NewProactive(reloaded, core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	audit := cloudsim.NewVMAudit()
	res, err := cloudsim.Run(cloudsim.Config{
		DB: reloaded, Servers: 6, Strategy: pa, IdleServerPower: -1, Audit: audit,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalVMs != rep.TotalVMs || audit.Len() != rep.TotalVMs {
		t.Fatalf("simulated %d VMs, trace has %d", res.TotalVMs, rep.TotalVMs)
	}
	if res.Makespan <= 0 || res.Energy <= 0 {
		t.Fatalf("degenerate metrics: %+v", res.Metrics)
	}
	for _, vm := range audit.Spans() {
		if vm.End < vm.Placed || vm.Placed < vm.Submit {
			t.Fatalf("causality violated: %+v", vm)
		}
	}
}

// TestSimulationIdenticalAcrossDBPersistence asserts that persisting the
// model to CSV and reloading it changes no simulation outcome.
func TestSimulationIdenticalAcrossDBPersistence(t *testing.T) {
	db := integrationDB(t)
	var mainBuf, auxBuf bytes.Buffer
	if err := db.WriteCSV(&mainBuf); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteAuxCSV(&auxBuf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := model.ReadCSV(&mainBuf, &auxBuf)
	if err != nil {
		t.Fatal(err)
	}

	gcfg := trace.DefaultGenConfig(11)
	gcfg.Jobs = 250
	tr, err := trace.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(11)
	pcfg.TargetVMs = 400
	reqs, _, err := trace.Prepare(tr, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(d *model.DB) cloudsim.Metrics {
		pa, err := strategy.NewProactive(d, core.GoalEnergy)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cloudsim.Run(cloudsim.Config{DB: d, Servers: 5, Strategy: pa, IdleServerPower: -1}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := run(db), run(reloaded)
	if a.Makespan != b.Makespan || a.Violations != b.Violations {
		t.Errorf("reloaded DB changed the simulation: %+v vs %+v", a, b)
	}
	if !units.NearlyEqual(float64(a.Energy), float64(b.Energy), 1e-9) {
		t.Errorf("reloaded DB changed energy: %v vs %v", a.Energy, b.Energy)
	}
}

// TestAllStrategiesCompleteSameWorkload runs every placement strategy
// (baselines and extensions alike) over one workload and checks they all
// finish every VM.
func TestAllStrategiesCompleteSameWorkload(t *testing.T) {
	db := integrationDB(t)
	gcfg := trace.DefaultGenConfig(13)
	gcfg.Jobs = 250
	tr, err := trace.Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(13)
	pcfg.TargetVMs = 300
	reqs, rep, err := trace.Prepare(tr, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	ff1, _ := strategy.NewFirstFit(1)
	ff3, _ := strategy.NewFirstFit(3)
	pa, err := strategy.NewProactive(db, core.GoalBalanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []strategy.Strategy{ff1, ff3, &strategy.BestFit{Multiplex: 2}, pa} {
		res, err := cloudsim.Run(cloudsim.Config{DB: db, Servers: 6, Strategy: st, IdleServerPower: -1}, reqs)
		if err != nil {
			t.Fatalf("%s: %v", st.Name(), err)
		}
		if res.TotalVMs != rep.TotalVMs {
			t.Errorf("%s: completed %d VMs, want %d", st.Name(), res.TotalVMs, rep.TotalVMs)
		}
	}
}

// TestAllocatorHonorsModelSemantics cross-checks the allocator's
// estimates against the database it was built from: placing a single
// reference-length VM on an empty server must estimate exactly the
// database's solo class time.
func TestAllocatorHonorsModelSemantics(t *testing.T) {
	db := integrationDB(t)
	alloc, err := core.NewAllocator(core.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range workload.Classes {
		ref := db.Aux().RefTime[class]
		rec, ok := db.Lookup(model.KeyFor(class, 1))
		if !ok {
			t.Fatalf("missing solo record for %v", class)
		}
		est, err := alloc.EstimateVM(model.KeyFor(class, 1), core.VMRequest{
			ID: "v", Class: class, NominalTime: ref,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !units.NearlyEqual(float64(est), float64(rec.ClassTime(class)), 1e-9) {
			t.Errorf("%v: estimate %v, database %v", class, est, rec.ClassTime(class))
		}
	}
}

// TestGridBoundAblation demonstrates the design choice documented in
// DESIGN.md §4: without the per-class grid bound the energy goal packs
// servers beyond the measured optima.
func TestGridBoundAblation(t *testing.T) {
	db := integrationDB(t)
	ref := db.Aux().RefTime[workload.ClassCPU]
	servers := []core.ServerState{{ID: 0, Alloc: model.KeyFor(workload.ClassCPU, db.Aux().OS(workload.ClassCPU))}, {ID: 1}}
	vms := []core.VMRequest{{ID: "v", Class: workload.ClassCPU, NominalTime: ref}}

	bounded, err := core.NewAllocator(core.Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	out, err := bounded.Allocate(core.GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if out.Placements[0].ServerID != 1 {
		t.Errorf("bounded allocator packed past the per-class optimum")
	}

	unbounded, err := core.NewAllocator(core.Config{
		DB:            db,
		PerClassBound: [workload.NumClasses]int{-1, -1, -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err = unbounded.Allocate(core.GoalEnergy, servers, vms)
	if err != nil {
		t.Fatal(err)
	}
	if out.Placements[0].ServerID != 0 {
		t.Errorf("unbounded energy goal should consolidate onto the warm server (ablation)")
	}
}
