package cloudsim

// Guards for the fleet sampler: the exported energy integral reconciles
// with Metrics.Energy, the ring downsamples deterministically under a
// tight cap, and sampling never perturbs the simulation.

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pacevm/internal/faults"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// TestSamplerEnergyIntegral is the acceptance check: a faulted
// 1000-server run with audit and series enabled produces a sample
// stream whose cumulative fleet energy (busy integral plus idle
// billing) matches Metrics.Energy to within float rounding.
func TestSamplerEnergyIntegral(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 51, 400)
	sched := faultSchedule(t, 7, 1000, 40000)
	fs := NewFleetSampler(0)
	audit := NewVMAudit()
	res, err := Run(Config{
		DB: db, Servers: 1000, Strategy: ff(t, 2),
		Faults: sched, Checkpoint: faults.Periodic{Interval: 300},
		Sampler: fs, Audit: audit,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("schedule did not bite")
	}
	if fs.Len() == 0 || audit.Len() == 0 {
		t.Fatalf("nothing sampled: %d samples, %d spans", fs.Len(), audit.Len())
	}
	got, want := float64(fs.TotalEnergy()), float64(res.Energy)
	if rel := (got - want) / want; rel < -1e-9 || rel > 1e-9 {
		t.Errorf("sampler energy integral %v J, Metrics.Energy %v J (rel err %g)", got, want, rel)
	}
	// The samples must be time-ordered with monotone cumulative energy,
	// and the outage must surface in the down-server column.
	samples := fs.Samples()
	sawDown := false
	for i, s := range samples {
		if i > 0 && s.At < samples[i-1].At {
			t.Fatalf("sample %d out of order: %v after %v", i, s.At, samples[i-1].At)
		}
		if i > 0 && s.CumEnergy < samples[i-1].CumEnergy {
			t.Fatalf("cumulative energy regressed at sample %d", i)
		}
		if s.DownServers > 0 {
			sawDown = true
		}
		if s.ActiveServers < 0 || s.RunningVMs < 0 || s.FleetWatts < 0 {
			t.Fatalf("negative fleet state at sample %d: %+v", i, s)
		}
	}
	if !sawDown {
		t.Error("no sample caught a server outage")
	}
}

// TestSamplerDoesNotPerturb runs the same configuration with and
// without the sampler and requires byte-identical results.
func TestSamplerDoesNotPerturb(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 21, 150)
	sched := faultSchedule(t, 5, 10, 40000)
	mk := func(fs *FleetSampler) Config {
		return Config{
			DB: db, Servers: 10, Strategy: ff(t, 2),
			Faults: sched, Sampler: fs,
		}
	}
	plain, plainVMs := runRecords(t, Run, mk(nil), reqs)
	sampled, sampledVMs := runRecords(t, Run, mk(NewFleetSampler(64)), reqs)
	if plain.Metrics != sampled.Metrics {
		t.Errorf("sampler perturbed Metrics:\nplain   %+v\nsampled %+v", plain.Metrics, sampled.Metrics)
	}
	if !reflect.DeepEqual(plainVMs, sampledVMs) {
		t.Error("sampler perturbed the VMRecord stream")
	}
}

// TestSamplerDownsampling pins the bounded ring: under a tight cap a
// long run keeps at most cap samples, the stride grows as a power of
// two, and the energy integral is unaffected by the thinning.
func TestSamplerDownsampling(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 31, 400)
	run := func(cap int) (*FleetSampler, Result) {
		fs := NewFleetSampler(cap)
		res, err := Run(Config{DB: db, Servers: 8, Strategy: ff(t, 2), Sampler: fs}, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return fs, res
	}
	tight, res := run(16)
	if tight.Len() > 16 {
		t.Errorf("ring holds %d samples, cap 16", tight.Len())
	}
	if s := tight.Stride(); s <= 1 || s&(s-1) != 0 {
		t.Errorf("stride = %d, want a power of two > 1 after halving", s)
	}
	wide, _ := run(0)
	if wide.Len() <= 16 {
		t.Errorf("default-cap ring kept only %d samples; workload too small to exercise thinning", wide.Len())
	}
	if tight.TotalEnergy() != wide.TotalEnergy() {
		t.Errorf("thinning changed the energy integral: %v vs %v", tight.TotalEnergy(), wide.TotalEnergy())
	}
	if got, want := float64(wide.TotalEnergy()), float64(res.Energy); got != want {
		rel := (got - want) / want
		if rel < -1e-9 || rel > 1e-9 {
			t.Errorf("fault-free integral %v != Metrics.Energy %v", got, want)
		}
	}
}

// TestSamplerCSVAndSeries pins the export surfaces: a parseable,
// deterministic CSV with the documented header, and dashboard series
// aligned with the retained samples.
func TestSamplerCSVAndSeries(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 13, 60)
	export := func() (*FleetSampler, []byte) {
		fs := NewFleetSampler(0)
		if _, err := Run(Config{DB: db, Servers: 6, Strategy: ff(t, 2), Sampler: fs}, reqs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fs.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return fs, buf.Bytes()
	}
	fs, out := export()
	rows, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("series CSV does not parse: %v", err)
	}
	if got := strings.Join(rows[0], ","); got != seriesCSVHeader {
		t.Errorf("header = %q, want %q", got, seriesCSVHeader)
	}
	if len(rows)-1 != fs.Len() {
		t.Errorf("%d data rows for %d samples", len(rows)-1, fs.Len())
	}
	// Spot-check numeric round-trip of the last row's cumulative energy.
	last := rows[len(rows)-1]
	if v, err := strconv.ParseFloat(last[len(last)-1], 64); err != nil || v != float64(fs.BusyEnergy()) {
		t.Errorf("last cum_energy_j cell %q != BusyEnergy %v (err %v)", last[len(last)-1], fs.BusyEnergy(), err)
	}
	if _, again := export(); !bytes.Equal(out, again) {
		t.Error("series CSV not deterministic across identical runs")
	}

	series := fs.Series()
	if len(series) != 3 {
		t.Fatalf("%d dashboard series, want 3", len(series))
	}
	for _, s := range series {
		if len(s.Points) != fs.Len() {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.Points), fs.Len())
		}
	}
	var nilFS *FleetSampler
	if nilFS.Series() != nil || nilFS.Samples() != nil || nilFS.Len() != 0 || nilFS.Stride() != 0 {
		t.Error("nil sampler accessors not inert")
	}
}

// TestSamplerReuseResets pins that attaching one sampler to consecutive
// runs starts each from a clean slate.
func TestSamplerReuseResets(t *testing.T) {
	db := sharedDB(t)
	reqs := mkReqs(t, 4, workload.ClassCPU, 50)
	fs := NewFleetSampler(64)
	var firstLen int
	var firstEnergy float64
	for rep := 0; rep < 2; rep++ {
		if _, err := Run(Config{DB: db, Servers: 2, Strategy: ff(t, 2), Sampler: fs}, reqs); err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			firstLen, firstEnergy = fs.Len(), float64(fs.TotalEnergy())
			continue
		}
		if fs.Len() != firstLen || float64(fs.TotalEnergy()) != firstEnergy {
			t.Errorf("reuse did not reset: len %d→%d, energy %v→%v",
				firstLen, fs.Len(), firstEnergy, fs.TotalEnergy())
		}
	}
}

// TotalEnergy returns BusyEnergy + IdleEnergy.
func (fs *FleetSampler) TotalEnergy() units.Joules {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cumEnergy + fs.idleEnergy
}
