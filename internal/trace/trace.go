// Package trace produces the simulation workload of Sect. IV.B. The
// paper uses production traces from the Grid Observatory (EGEE Grid)
// converted to SWF; those logs are not redistributable, so this package
// generates synthetic EGEE-like traces with the same structural features
// the evaluation depends on — bursty arrivals of scientific-workflow job
// requests, heavy-tailed runtimes, and a realistic share of failed and
// cancelled jobs — and then applies the paper's own preprocessing
// pipeline to whatever SWF trace it is given (synthetic or real):
//
//  1. combine the trace into one file in submit-time order, renumbered
//     from 1 (swf.SortJobs, which Generate applies in place),
//  2. clean failed jobs, cancelled jobs and anomalies
//     (swf.CleanReport.Count, which Prepare applies to each job as it
//     reads the trace, without a cleaned copy),
//  3. randomly assign one of the benchmark profiles to each request
//     "following a uniform distribution by bursts", with burst sizes
//     drawn uniformly from 1 to 5 — workflows are sets of jobs with the
//     same resource requirements,
//  4. rescale each request to 1–4 VMs instead of its original CPU
//     demand, and
//  5. attach QoS (maximum response time) per application type, not per
//     request.
package trace

import (
	"fmt"
	"math"

	"pacevm/internal/rng"
	"pacevm/internal/swf"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// Request is one preprocessed job request ready for the datacenter
// simulator: a set of identical VMs with a profile and QoS bound.
type Request struct {
	ID     int
	Submit units.Seconds
	// Class is the benchmark profile assigned to the request.
	Class workload.Class
	// VMs is the number of VMs the request provisions (1–4). All run the
	// same application ("a single process per VM; to run multiple
	// processes multiple VMs are required").
	VMs int
	// NominalTime is the application's solo execution time on the
	// reference server.
	NominalTime units.Seconds
	// MaxResponse is the QoS guarantee: the maximum acceptable response
	// time (wait + execution) counted from Submit.
	MaxResponse units.Seconds
}

// Validate checks request invariants.
func (r Request) Validate() error {
	if r.Submit < 0 {
		return fmt.Errorf("trace: request %d has negative submit time", r.ID)
	}
	if !r.Class.Valid() {
		return fmt.Errorf("trace: request %d has invalid class", r.ID)
	}
	if r.VMs < 1 || r.VMs > 4 {
		return fmt.Errorf("trace: request %d has %d VMs, want 1-4", r.ID, r.VMs)
	}
	if r.NominalTime <= 0 {
		return fmt.Errorf("trace: request %d has non-positive nominal time", r.ID)
	}
	if r.MaxResponse < 0 {
		return fmt.Errorf("trace: request %d has negative QoS bound", r.ID)
	}
	return nil
}

// GenConfig parameterizes synthetic EGEE-like trace generation.
type GenConfig struct {
	Seed uint64
	// Jobs is how many job records to emit (before cleaning).
	Jobs int
	// Horizon is the arrival window; submissions fall in [0, Horizon).
	Horizon units.Seconds
	// RuntimeMu and RuntimeSigma parameterize the lognormal runtime
	// distribution (of seconds).
	RuntimeMu, RuntimeSigma float64
	// FailedFrac and CancelledFrac are the shares of failed and
	// cancelled jobs (EGEE logs carry a substantial failure share).
	FailedFrac, CancelledFrac float64
	// AnomalyFrac is the share of otherwise-completed jobs with
	// unreplayable fields (zero runtimes), exercising the cleaning pass.
	AnomalyFrac float64
	// DiurnalAmplitude, in [0,1), modulates burst arrival density with a
	// 24-hour sinusoid (grid submission logs show clear day/night
	// cycles). Zero — the evaluation default — keeps arrivals uniform so
	// the paper-shape calibration is unaffected.
	DiurnalAmplitude float64
}

// DefaultGenConfig mirrors the published EGEE workload shape at a size
// that preprocesses to roughly the paper's 10,000 VMs.
func DefaultGenConfig(seed uint64) GenConfig {
	return GenConfig{
		Seed:          seed,
		Jobs:          5200,
		Horizon:       8 * 3600,
		RuntimeMu:     6.2, // median ≈ 490 s
		RuntimeSigma:  0.9,
		FailedFrac:    0.10,
		CancelledFrac: 0.05,
		AnomalyFrac:   0.02,
	}
}

func (c GenConfig) validate() error {
	if c.Jobs < 1 {
		return fmt.Errorf("trace: Jobs must be positive")
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("trace: Horizon must be positive")
	}
	if c.RuntimeSigma < 0 {
		return fmt.Errorf("trace: negative RuntimeSigma")
	}
	bad := c.FailedFrac < 0 || c.CancelledFrac < 0 || c.AnomalyFrac < 0 ||
		c.FailedFrac+c.CancelledFrac+c.AnomalyFrac >= 1
	if bad {
		return fmt.Errorf("trace: failure fractions out of range")
	}
	if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1 {
		return fmt.Errorf("trace: DiurnalAmplitude %v out of [0,1)", c.DiurnalAmplitude)
	}
	return nil
}

// Generate produces a synthetic SWF trace. Jobs arrive in workflow
// bursts: burst start times are uniform over the horizon, burst sizes
// uniform in 1..5, and jobs within a burst arrive seconds apart, sharing
// runtime scale and processor demand — the structure the paper's
// profile-assignment step assumes.
func Generate(cfg GenConfig) (*swf.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := rng.NewSource(cfg.Seed)
	arrivals := src.Stream("trace.arrivals")
	shape := src.Stream("trace.shape")
	status := src.Stream("trace.status")

	tr := &swf.Trace{
		Header: map[string]string{
			"Version":  "2.2",
			"Computer": "synthetic EGEE-like grid (pacevm)",
			"Note":     "generated workload; see internal/trace",
		},
		HeaderOrder: []string{"Version", "Computer", "Note"},
		Jobs:        make([]swf.Job, 0, cfg.Jobs),
	}

	const day = 24 * 3600
	for len(tr.Jobs) < cfg.Jobs {
		burstStart := arrivals.Uniform(0, float64(cfg.Horizon))
		if cfg.DiurnalAmplitude > 0 {
			// Thinning: accept bursts in proportion to the diurnal
			// density (peak at local noon), redrawing otherwise.
			density := (1 + cfg.DiurnalAmplitude*math.Sin(2*math.Pi*burstStart/day-math.Pi/2)) /
				(1 + cfg.DiurnalAmplitude)
			if !arrivals.Bool(density) {
				continue
			}
		}
		burstSize := arrivals.IntBetween(1, 5)
		// Workflow jobs share their demand shape.
		runtime := shape.LogNormal(cfg.RuntimeMu, cfg.RuntimeSigma)
		if runtime < 30 {
			runtime = 30
		}
		procs := 1 << shape.Intn(6) // 1..32 processors, EGEE-like
		for b := 0; b < burstSize && len(tr.Jobs) < cfg.Jobs; b++ {
			j := swf.Job{
				JobNumber:     len(tr.Jobs) + 1,
				SubmitTime:    int64(burstStart) + int64(b)*int64(1+arrivals.Intn(20)),
				WaitTime:      -1,
				RunTime:       int64(runtime * shape.Uniform(0.9, 1.1)),
				AllocatedProc: procs,
				AvgCPUTime:    -1,
				UsedMemory:    -1,
				ReqProc:       procs,
				ReqTime:       int64(runtime * 4),
				ReqMemory:     -1,
				Status:        swf.StatusCompleted,
				UserID:        1 + status.Intn(200),
				GroupID:       1 + status.Intn(20),
				ExecutableID:  1 + status.Intn(50),
				QueueNumber:   1,
				PartitionNum:  1,
				PrecedingJob:  -1,
				ThinkTime:     -1,
			}
			switch r := status.Float64(); {
			case r < cfg.FailedFrac:
				j.Status = swf.StatusFailed
				j.RunTime = int64(float64(j.RunTime) * status.Float64())
			case r < cfg.FailedFrac+cfg.CancelledFrac:
				j.Status = swf.StatusCancelled
			case r < cfg.FailedFrac+cfg.CancelledFrac+cfg.AnomalyFrac:
				j.RunTime = 0 // anomaly: completed but unreplayable
			}
			tr.Jobs = append(tr.Jobs, j)
		}
	}
	// Bursts overlap, so put the jobs in canonical submit order and
	// renumber them, then fill the standard SWF summary directives.
	swf.SortJobs(tr.Jobs)
	tr.Header["MaxJobs"] = fmt.Sprint(len(tr.Jobs))
	tr.Header["MaxRecords"] = fmt.Sprint(len(tr.Jobs))
	tr.Header["UnixStartTime"] = "0"
	tr.HeaderOrder = append(tr.HeaderOrder, "MaxJobs", "MaxRecords", "UnixStartTime")
	return tr, nil
}

// PrepConfig parameterizes preprocessing.
type PrepConfig struct {
	Seed uint64
	// TargetVMs stops conversion once this many VMs have been emitted
	// (the paper's input trace "requests a total of 10,000 VMs"). Zero
	// converts the whole trace; a negative value is an error.
	TargetVMs int
	// QoSFactor is the per-class maximum response time as a multiple of
	// the request's nominal execution time — defined "per application
	// type and not for each specific request".
	QoSFactor [workload.NumClasses]float64
}

// DefaultPrepConfig returns the evaluation's preprocessing parameters.
func DefaultPrepConfig(seed uint64) PrepConfig {
	return PrepConfig{
		Seed:      seed,
		TargetVMs: 10000,
		QoSFactor: [workload.NumClasses]float64{
			workload.ClassCPU: 2.5,
			workload.ClassMEM: 2.5,
			workload.ClassIO:  3.0,
		},
	}
}

// PrepReport summarizes preprocessing.
type PrepReport struct {
	Clean       swf.CleanReport
	Requests    int
	TotalVMs    int
	VMsByClass  [workload.NumClasses]int
	JobsByClass [workload.NumClasses]int
}

// Prepare converts a raw SWF trace into simulator requests using the
// paper's pipeline (see the package comment). Each job is classified by
// swf.CleanReport.Count, and the report covers the whole trace; kept
// jobs are converted, in order, until TargetVMs is reached. Profiles are
// assigned uniformly over classes in bursts of 1–5 consecutive requests;
// VM counts rescale the original CPU demand into 1–4 VMs; QoS attaches
// per class. The trace is only read.
func Prepare(tr *swf.Trace, cfg PrepConfig) ([]Request, PrepReport, error) {
	var rep PrepReport
	if cfg.TargetVMs < 0 {
		return nil, rep, fmt.Errorf("trace: negative TargetVMs %d", cfg.TargetVMs)
	}
	for _, c := range workload.Classes {
		if cfg.QoSFactor[c] < 0 {
			return nil, rep, fmt.Errorf("trace: negative QoS factor for %v", c)
		}
	}

	profiles := rng.NewSource(cfg.Seed).Stream("trace.profiles")
	// Every request carries at least one VM, so the target bounds the
	// request count as well as the trace does.
	n := len(tr.Jobs)
	if cfg.TargetVMs > 0 {
		n = min(n, cfg.TargetVMs)
	}
	out := make([]Request, 0, n)
	burstLeft := 0
	var burstClass workload.Class
	for i := range tr.Jobs {
		j := &tr.Jobs[i]
		if !rep.Clean.Count(j) || (cfg.TargetVMs > 0 && rep.TotalVMs >= cfg.TargetVMs) {
			continue
		}
		if burstLeft == 0 {
			burstLeft = profiles.IntBetween(1, 5)
			burstClass = workload.Classes[profiles.Intn(workload.NumClasses)]
		}
		burstLeft--

		req := Request{
			ID:          len(out) + 1,
			Submit:      units.Seconds(j.SubmitTime),
			Class:       burstClass,
			VMs:         vmCount(swf.ProcCount(j)),
			NominalTime: units.Seconds(j.RunTime),
		}
		req.MaxResponse = units.Seconds(float64(req.NominalTime) * cfg.QoSFactor[burstClass])
		if err := req.Validate(); err != nil {
			return nil, rep, err
		}
		out = append(out, req)
		rep.TotalVMs += req.VMs
		rep.VMsByClass[burstClass] += req.VMs
		rep.JobsByClass[burstClass]++
	}
	rep.Requests = len(out)
	return out, rep, nil
}

// vmCount rescales an original grid CPU demand to the paper's 1–4 VMs
// per job request.
func vmCount(procs int) int {
	switch {
	case procs <= 1:
		return 1
	case procs == 2:
		return 2
	case procs <= 4:
		return 3
	default:
		return 4
	}
}
