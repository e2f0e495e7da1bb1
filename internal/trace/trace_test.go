package trace

import (
	"math"
	"testing"

	"pacevm/internal/swf"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultGenConfig(42)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != cfg.Jobs {
		t.Fatalf("jobs = %d, want %d", len(tr.Jobs), cfg.Jobs)
	}
	// Sorted by submit and renumbered.
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].SubmitTime < tr.Jobs[i-1].SubmitTime {
			t.Fatal("jobs not sorted by submit time")
		}
		if tr.Jobs[i].JobNumber != i+1 {
			t.Fatal("jobs not renumbered")
		}
	}
	// Status mix present.
	var failed, cancelled, completed int
	for _, j := range tr.Jobs {
		switch j.Status {
		case swf.StatusFailed:
			failed++
		case swf.StatusCancelled:
			cancelled++
		case swf.StatusCompleted:
			completed++
		}
	}
	if failed == 0 || cancelled == 0 {
		t.Error("generator should emit failed and cancelled jobs")
	}
	fRate := float64(failed) / float64(len(tr.Jobs))
	if math.Abs(fRate-cfg.FailedFrac) > 0.02 {
		t.Errorf("failed fraction = %v, want ~%v", fRate, cfg.FailedFrac)
	}
	if completed < len(tr.Jobs)/2 {
		t.Error("most jobs should complete")
	}
	// Arrivals inside the horizon (bursts may spill a few seconds past).
	for _, j := range tr.Jobs {
		if j.SubmitTime < 0 || units.Seconds(j.SubmitTime) > cfg.Horizon+200 {
			t.Fatalf("submit %d outside horizon", j.SubmitTime)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultGenConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatal("nondeterministic job count")
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs between equal-seed runs", i)
		}
	}
	c, err := Generate(DefaultGenConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Jobs {
		if a.Jobs[i].RunTime == c.Jobs[i].RunTime {
			same++
		}
	}
	if same == len(a.Jobs) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenConfig{
		{Jobs: 0, Horizon: 1},
		{Jobs: 1, Horizon: 0},
		{Jobs: 1, Horizon: 1, RuntimeSigma: -1},
		{Jobs: 1, Horizon: 1, FailedFrac: 0.6, CancelledFrac: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted bad config", i)
		}
	}
}

func TestPrepareTargetsVMCount(t *testing.T) {
	tr, err := Generate(DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPrepConfig(42)
	reqs, rep, err := Prepare(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalVMs < cfg.TargetVMs || rep.TotalVMs > cfg.TargetVMs+3 {
		t.Errorf("total VMs = %d, want ~%d (last job may overshoot by <4)", rep.TotalVMs, cfg.TargetVMs)
	}
	if rep.Requests != len(reqs) {
		t.Errorf("report requests %d vs %d", rep.Requests, len(reqs))
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPrepareProfileBursts(t *testing.T) {
	tr, err := Generate(DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	reqs, rep, err := Prepare(tr, DefaultPrepConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	// All three classes used, roughly uniformly (by bursts).
	for _, c := range workload.Classes {
		frac := float64(rep.JobsByClass[c]) / float64(rep.Requests)
		if frac < 0.2 || frac > 0.47 {
			t.Errorf("class %v got %.0f%% of jobs, want roughly uniform", c, 100*frac)
		}
	}
	// Bursts: runs of equal class with length <= 5 exist, and some run
	// longer than 1 (otherwise assignment is per-job, not per-burst).
	runs := 0
	maxRun, run := 0, 1
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Class == reqs[i-1].Class {
			run++
		} else {
			runs++
			if run > maxRun {
				maxRun = run
			}
			run = 1
		}
	}
	if maxRun < 2 {
		t.Error("no multi-job profile bursts found")
	}
}

func TestPrepareQoSPerClass(t *testing.T) {
	tr, err := Generate(DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPrepConfig(42)
	reqs, _, err := Prepare(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		want := float64(r.NominalTime) * cfg.QoSFactor[r.Class]
		if !units.NearlyEqual(float64(r.MaxResponse), want, 1e-9) {
			t.Fatalf("request %d QoS %v, want %v", r.ID, r.MaxResponse, want)
		}
	}
}

func TestPrepareDropsUncleanJobs(t *testing.T) {
	tr := &swf.Trace{Jobs: []swf.Job{
		{JobNumber: 1, SubmitTime: 0, RunTime: 100, ReqProc: 1, Status: swf.StatusFailed},
		{JobNumber: 2, SubmitTime: 1, RunTime: 100, ReqProc: 1, Status: swf.StatusCompleted},
		{JobNumber: 3, SubmitTime: 2, RunTime: 100, ReqProc: 1, Status: swf.StatusCancelled},
	}}
	reqs, rep, err := Prepare(tr, PrepConfig{Seed: 1, QoSFactor: [3]float64{2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || rep.Clean.Kept != 1 {
		t.Errorf("prepared %d requests from 1 clean job", len(reqs))
	}
}

func TestPrepareRejectsNegativeQoS(t *testing.T) {
	tr := &swf.Trace{}
	if _, _, err := Prepare(tr, PrepConfig{QoSFactor: [3]float64{-1, 2, 2}}); err == nil {
		t.Error("negative QoS factor should fail")
	}
}

func TestPrepareRejectsNegativeTargetVMs(t *testing.T) {
	tr, err := Generate(DefaultGenConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPrepConfig(1)
	cfg.TargetVMs = -100
	if _, _, err := Prepare(tr, cfg); err == nil {
		t.Error("negative TargetVMs should fail, not convert the whole trace")
	}
	cfg.TargetVMs = 0
	reqs, rep, err := Prepare(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != rep.Clean.Kept {
		t.Errorf("TargetVMs 0 converted %d of %d cleaned jobs, want all", len(reqs), rep.Clean.Kept)
	}
}

func TestVMCountScaling(t *testing.T) {
	// "we assigned 1 to 4 VMs per job request rather than the original
	// CPU demand"
	cases := []struct{ procs, want int }{
		{-1, 1}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {32, 4},
	}
	for _, c := range cases {
		if got := vmCount(c.procs); got != c.want {
			t.Errorf("vmCount(%d) = %d, want %d", c.procs, got, c.want)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{ID: 1, Submit: 0, Class: workload.ClassCPU, VMs: 2, NominalTime: 100, MaxResponse: 200}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Request){
		func(r *Request) { r.Submit = -1 },
		func(r *Request) { r.Class = workload.Class(9) },
		func(r *Request) { r.VMs = 0 },
		func(r *Request) { r.VMs = 5 },
		func(r *Request) { r.NominalTime = 0 },
		func(r *Request) { r.MaxResponse = -1 },
	}
	for i, mutate := range cases {
		r := good
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad request", i)
		}
	}
}

func TestDiurnalModulation(t *testing.T) {
	cfg := DefaultGenConfig(42)
	cfg.Horizon = 24 * 3600 // a full day so the cycle is visible
	cfg.Jobs = 4000
	cfg.DiurnalAmplitude = 0.8
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count arrivals by quarter-day: midday quarters must clearly exceed
	// the night quarter (sinusoid peaks at noon).
	var counts [4]int
	for _, j := range tr.Jobs {
		counts[int(j.SubmitTime)/(6*3600)%4]++
	}
	night, midday := counts[0], counts[2]
	if float64(midday) < 1.5*float64(night) {
		t.Errorf("no diurnal shape: quarters = %v", counts)
	}
}

func TestDiurnalValidation(t *testing.T) {
	cfg := DefaultGenConfig(1)
	cfg.DiurnalAmplitude = 1.0
	if _, err := Generate(cfg); err == nil {
		t.Error("amplitude 1.0 should be rejected")
	}
	cfg.DiurnalAmplitude = -0.1
	if _, err := Generate(cfg); err == nil {
		t.Error("negative amplitude should be rejected")
	}
}

func TestGeneratedHeadersStandard(t *testing.T) {
	tr, err := Generate(DefaultGenConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header["MaxJobs"] == "" || tr.Header["UnixStartTime"] == "" {
		t.Errorf("missing standard SWF directives: %v", tr.Header)
	}
}
