package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pacevm/internal/model"
	"pacevm/internal/rng"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

func TestPaperCombinedCountFormula(t *testing.T) {
	// Sect. III.B: (OSC+1)(OSM+1)(OSI+1) − (1+OSC+OSM+OSI).
	cases := []struct {
		osc, osm, osi, want int
	}{
		{1, 1, 1, 4},
		{2, 2, 2, 20},
		{5, 6, 8, (5+1)*(6+1)*(8+1) - (1 + 5 + 6 + 8)},
	}
	for _, c := range cases {
		if got := PaperCombinedCount(c.osc, c.osm, c.osi); got != c.want {
			t.Errorf("PaperCombinedCount(%d,%d,%d) = %d, want %d", c.osc, c.osm, c.osi, got, c.want)
		}
	}
}

func TestRunBaseFFTWMatchesPaperShape(t *testing.T) {
	// The paper's Fig. 2: FFTW's performance-optimal count is 9 (we
	// accept 8-10), and counts beyond 11 degrade sharply.
	res, err := RunBaseBenchmark(DefaultConfig(), workload.FFTW())
	if err != nil {
		t.Fatal(err)
	}
	if res.OSP < 8 || res.OSP > 10 {
		t.Errorf("FFTW OSP = %d, want 8-10 (paper: 9)", res.OSP)
	}
	if len(res.Points) != 16 {
		t.Fatalf("points = %d, want 16", len(res.Points))
	}
	best := res.Points[res.OSP-1].AvgTimeVM
	if res.Points[12-1].AvgTimeVM < 1.5*best {
		t.Errorf("12-way avg %v does not degrade vs optimum %v", res.Points[11].AvgTimeVM, best)
	}
	if res.RefTime < 600 || res.RefTime > 650 {
		t.Errorf("FFTW reference time = %v, want ~612s", res.RefTime)
	}
}

func TestRunBasePerClass(t *testing.T) {
	cfg := DefaultConfig()
	for _, class := range workload.Classes {
		res, err := RunBase(cfg, class)
		if err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		if want := workload.Representative(class).Name; res.Bench != want {
			t.Errorf("%v: bench = %s, want %s", class, res.Bench, want)
		}
		if res.OSP < 1 || res.OSP > cfg.MaxBase || res.OSE < 1 || res.OSE > cfg.MaxBase {
			t.Errorf("%v: OSP=%d OSE=%d out of range", class, res.OSP, res.OSE)
		}
		if res.OS() < res.OSP || res.OS() < res.OSE {
			t.Errorf("%v: OS()=%d not the max of OSP/OSE", class, res.OS())
		}
		if res.RefTime <= 0 {
			t.Errorf("%v: no reference time", class)
		}
		// Consolidation must help: optimum is more than 1 VM per server.
		if res.OSP == 1 {
			t.Errorf("%v: OSP=1 — consolidation shows no benefit, calibration broken", class)
		}
	}
}

func TestBaseEnergyCurveHasMinimum(t *testing.T) {
	// Per-VM energy must improve with consolidation and worsen again
	// under thrash — otherwise OSE is degenerate.
	res, err := RunBase(DefaultConfig(), workload.ClassCPU)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[res.OSE-1].PerVMEnergy >= res.Points[0].PerVMEnergy {
		t.Error("consolidated per-VM energy not below solo")
	}
	last := res.Points[len(res.Points)-1]
	if last.PerVMEnergy <= res.Points[res.OSE-1].PerVMEnergy {
		t.Error("thrashing should make per-VM energy worse than optimum")
	}
}

func TestRunReducedGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBase = 8 // keep the test quick
	db, sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	osc := sum.Base[workload.ClassCPU].OS()
	osm := sum.Base[workload.ClassMEM].OS()
	osi := sum.Base[workload.ClassIO].OS()
	if want := PaperCombinedCount(osc, osm, osi); sum.CombinedRuns != want {
		t.Errorf("combined runs = %d, want paper formula %d (OS=%d,%d,%d)", sum.CombinedRuns, want, osc, osm, osi)
	}
	// Every grid cell within OS bounds must be present.
	for c := 0; c <= osc; c++ {
		for m := 0; m <= osm; m++ {
			for i := 0; i <= osi; i++ {
				k := model.Key{NCPU: c, NMEM: m, NIO: i}
				if k.IsZero() || k.Total() > cfg.VMM.Spec.MaxVMs {
					continue
				}
				if _, ok := db.Lookup(k); !ok {
					t.Fatalf("grid key %v missing from DB", k)
				}
			}
		}
	}
	// Base rows present up to MaxBase.
	for _, class := range workload.Classes {
		if _, ok := db.Lookup(model.KeyFor(class, cfg.MaxBase)); !ok {
			t.Errorf("base row for %v n=%d missing", class, cfg.MaxBase)
		}
	}
	// Aux must mirror the base results.
	aux := db.Aux()
	for _, class := range workload.Classes {
		if aux.OSP[class] != sum.Base[class].OSP || aux.OSE[class] != sum.Base[class].OSE {
			t.Errorf("aux for %v does not match base results", class)
		}
	}
}

func TestRunFullGrid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBase = 6
	cfg.FullGridTotal = 6
	db, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All keys with total <= 6 present: C(9,3) - 1 = 83.
	count := 0
	for c := 0; c <= 6; c++ {
		for m := 0; m <= 6-c; m++ {
			for i := 0; i <= 6-c-m; i++ {
				k := model.Key{NCPU: c, NMEM: m, NIO: i}
				if k.IsZero() {
					continue
				}
				count++
				if _, ok := db.Lookup(k); !ok {
					t.Fatalf("full-grid key %v missing", k)
				}
			}
		}
	}
	if db.Len() != count {
		t.Errorf("DB has %d records, want exactly the %d full-grid keys", db.Len(), count)
	}
}

func TestMeasureMixRecordConsistency(t *testing.T) {
	cfg := DefaultConfig()
	rec, err := MeasureMix(cfg, model.Key{NCPU: 2, NMEM: 1, NIO: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	// All three classes present → per-class times recorded.
	for _, class := range workload.Classes {
		if rec.TimeByClass[class] <= 0 {
			t.Errorf("missing class time for %v", class)
		}
	}
	// Mean class times cannot exceed the batch makespan.
	for _, class := range workload.Classes {
		if rec.TimeByClass[class] > rec.Time {
			t.Errorf("class time %v exceeds makespan %v", rec.TimeByClass[class], rec.Time)
		}
	}
}

func TestMeasureMixErrors(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := MeasureMix(cfg, model.Key{}); err == nil {
		t.Error("zero key should fail")
	}
	if _, err := MeasureMix(cfg, model.Key{NCPU: -1}); err == nil {
		t.Error("invalid key should fail")
	}
	if _, err := MeasureMix(cfg, model.Key{NCPU: 99}); err == nil {
		t.Error("over-admission key should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBase = 0
	if _, err := RunBase(cfg, workload.ClassCPU); err == nil {
		t.Error("MaxBase=0 should fail")
	}
	cfg = DefaultConfig()
	cfg.MaxBase = 99
	if _, err := RunBase(cfg, workload.ClassCPU); err == nil {
		t.Error("MaxBase beyond admission limit should fail")
	}
	cfg = DefaultConfig()
	cfg.FullGridTotal = 99
	if _, _, err := Run(cfg); err == nil {
		t.Error("FullGridTotal beyond admission limit should fail")
	}
	cfg = DefaultConfig()
	cfg.MeterSamples = -1
	if _, err := RunBase(cfg, workload.ClassCPU); err == nil {
		t.Error("negative MeterSamples should fail")
	}
}

func TestNoisyMeterStillConsistent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MeterNoise = rng.New(42)
	rec, err := MeasureMix(cfg, model.Key{NCPU: 1, NMEM: 1, NIO: 0})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := MeasureMix(DefaultConfig(), model.Key{NCPU: 1, NMEM: 1, NIO: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(float64(rec.Energy), float64(ideal.Energy), 0.02) {
		t.Errorf("noisy energy %v too far from ideal %v", rec.Energy, ideal.Energy)
	}
}

// csvs renders a database to its model.csv and aux.csv bytes.
func csvs(t *testing.T, db *model.DB) (string, string) {
	t.Helper()
	var main, aux bytes.Buffer
	if err := db.WriteCSV(&main); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteAuxCSV(&aux); err != nil {
		t.Fatal(err)
	}
	return main.String(), aux.String()
}

// TestParallelCampaignMatchesSerial pins the harness guarantee: the
// worker-pool campaign writes byte-identical CSV output to the serial
// run, whatever the pool size.
func TestParallelCampaignMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBase = 4
	cfg.FullGridTotal = 4
	cfg.Workers = 1
	serialDB, serialSum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMain, wantAux := csvs(t, serialDB)
	for _, workers := range []int{0, 4} {
		cfg.Workers = workers
		db, sum, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gotMain, gotAux := csvs(t, db)
		if gotMain != wantMain {
			t.Errorf("workers=%d: model.csv differs from serial run", workers)
		}
		if gotAux != wantAux {
			t.Errorf("workers=%d: aux.csv differs from serial run", workers)
		}
		if !reflect.DeepEqual(sum, serialSum) {
			t.Errorf("workers=%d: summary differs from serial run", workers)
		}
	}
}

// TestConfigRejectsNegativeWorkers covers the new knob's validation.
func TestConfigRejectsNegativeWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if _, _, err := Run(cfg); err == nil {
		t.Error("negative Workers should fail")
	}
}

// TestNoisyMeterForcesSerial documents that a shared noise stream pins
// the serial path even when a pool is requested.
func TestNoisyMeterForcesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	cfg.MeterNoise = rng.New(1)
	if got := cfg.workers(); got != 1 {
		t.Errorf("workers() = %d with MeterNoise set, want 1", got)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBase = 4
	a, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic record count")
	}
	for i := range a.Records() {
		if a.Records()[i] != b.Records()[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
}

// LoadDB reads back exactly what a campaign's CSV pair holds.
func TestLoadDBFromDir(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FullGridTotal = 8
	db, _, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	main, aux := csvs(t, db)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "model.csv"), []byte(main), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "aux.csv"), []byte(aux), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gm, ga := csvs(t, got); gm != main || ga != aux {
		t.Error("loaded database does not round-trip the campaign's CSVs")
	}
}

func TestLoadDBMissingDir(t *testing.T) {
	if _, err := LoadDB(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing model directory should fail")
	}
}
