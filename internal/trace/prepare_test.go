package trace

import (
	"runtime"
	"slices"
	"testing"

	"pacevm/internal/rng"
	"pacevm/internal/swf"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// prepareTwoStep is the reference for Prepare: the pipeline as two
// passes, swf.Clean into a cleaned copy of the trace and then the
// conversion of that copy's jobs until the VM target.
func prepareTwoStep(tr *swf.Trace, cfg PrepConfig) ([]Request, PrepReport) {
	clean, cleanRep := swf.Clean(tr)
	rep := PrepReport{Clean: cleanRep}
	profiles := rng.NewSource(cfg.Seed).Stream("trace.profiles")
	var out []Request
	burstLeft := 0
	var burstClass workload.Class
	for i := range clean.Jobs {
		if cfg.TargetVMs > 0 && rep.TotalVMs >= cfg.TargetVMs {
			break
		}
		if burstLeft == 0 {
			burstLeft = profiles.IntBetween(1, 5)
			burstClass = workload.Classes[profiles.Intn(workload.NumClasses)]
		}
		burstLeft--
		j := &clean.Jobs[i]
		req := Request{
			ID:          len(out) + 1,
			Submit:      units.Seconds(j.SubmitTime),
			Class:       burstClass,
			VMs:         vmCount(swf.ProcCount(j)),
			NominalTime: units.Seconds(j.RunTime),
		}
		req.MaxResponse = units.Seconds(float64(req.NominalTime) * cfg.QoSFactor[burstClass])
		out = append(out, req)
		rep.TotalVMs += req.VMs
		rep.VMsByClass[burstClass] += req.VMs
		rep.JobsByClass[burstClass]++
	}
	rep.Requests = len(out)
	return out, rep
}

// TestPrepareMatchesCleanThenConvert checks that Prepare, which classifies
// each job as it converts it, reports what swf.Clean reports over the
// whole trace and emits the requests of the clean-then-convert pipeline,
// on a trace with every kind of rejected job and a VM target that stops
// conversion partway.
func TestPrepareMatchesCleanThenConvert(t *testing.T) {
	gcfg := DefaultGenConfig(7)
	gcfg.FailedFrac, gcfg.CancelledFrac, gcfg.AnomalyFrac = 0.12, 0.06, 0.04
	tr, err := Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every anomaly kind, spread over the trace: the generator only
	// makes zero runtimes.
	for i := 3; i < len(tr.Jobs); i += 97 {
		j := &tr.Jobs[i]
		switch i % 4 {
		case 0:
			j.SubmitTime = -1
		case 1:
			j.AllocatedProc, j.ReqProc = -1, 0
		case 2:
			j.ReqTime = 1
			j.RunTime = 11
		case 3:
			j.RunTime = -1
		}
	}
	_, cleanRep := swf.Clean(tr)
	if cleanRep.Failed == 0 || cleanRep.Cancelled == 0 || cleanRep.Anomalous == 0 {
		t.Fatalf("trace lacks a rejected kind: %+v", cleanRep)
	}
	for _, target := range []int{0, 1, 6000} {
		cfg := DefaultPrepConfig(7)
		cfg.TargetVMs = target
		got, rep, err := Prepare(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRep := prepareTwoStep(tr, cfg)
		if rep.Clean != cleanRep {
			t.Errorf("target %d: Prepare's clean report %+v, swf.Clean's %+v", target, rep.Clean, cleanRep)
		}
		if rep != wantRep {
			t.Errorf("target %d: report %+v, want %+v", target, rep, wantRep)
		}
		if !slices.Equal(got, want) {
			t.Errorf("target %d: requests differ from clean-then-convert (%d vs %d)", target, len(got), len(want))
		}
		if target == 6000 && !(rep.Requests > 0 && rep.Requests < rep.Clean.Kept) {
			t.Errorf("target %d converted %d of %d kept jobs, want a cut partway", target, rep.Requests, rep.Clean.Kept)
		}
	}
}

// setupAllocBound caps the bytes Generate plus Prepare allocate at the
// sim-pa shape: one []swf.Job of 50,200 jobs (7.2 MB), the sort keys and
// their radix scratch (1.6 MB) and the requests (2.4 MB) come to about
// 11.3 MB. A second full-trace copy, such as a cleaned or merged one,
// adds 7.2 MB and fails it.
const setupAllocBound = 12 << 20

// TestTracePrepareAllocs pins the bytes the sim-pa set-up allocates.
// Allocation sizes do not depend on timing, so the figure is exact.
func TestTracePrepareAllocs(t *testing.T) {
	gcfg, pcfg := simPAConfigs(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Generate(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs, _, err := Prepare(tr, pcfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Generate+Prepare allocated %d bytes in %d allocations for %d jobs, %d requests",
		got, after.Mallocs-before.Mallocs, len(tr.Jobs), len(reqs))
	if got > setupAllocBound {
		t.Errorf("Generate+Prepare allocated %d bytes, bound %d", got, setupAllocBound)
	}
}
