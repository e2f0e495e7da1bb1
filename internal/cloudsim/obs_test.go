package cloudsim

// Guards for the telemetry layer's two contracts: (1) observation never
// perturbs the simulation — a run with a live Registry and Tracer is
// byte-identical in Metrics and audited per-VM records to an untraced
// run and to the RunReference oracle; (2) disabled telemetry is free — the nil-handle
// path adds zero allocations to Run (pinned against the measured
// pre-instrumentation baseline).

import (
	"bytes"
	"reflect"
	"testing"

	"pacevm/internal/migrate"
	"pacevm/internal/obs"
	"pacevm/internal/strategy"
)

// TestObsDoesNotPerturbSimulation runs representative configurations
// three ways — untraced, fully instrumented, reference oracle — and
// requires identical Metrics and per-VM records.
func TestObsDoesNotPerturbSimulation(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 31, 200)
	cases := []struct {
		name  string
		mkCfg func() Config
	}{
		{"FF-3/backfill4", func() Config {
			return Config{DB: db, Servers: 10, Strategy: ff(t, 3), BackfillDepth: 4}
		}},
		{"BF-2/consolidate", func() Config {
			return Config{
				DB: db, Servers: 10, Strategy: &strategy.BestFit{Multiplex: 2},
				Consolidator: &migrate.Planner{DB: db, MigrationCost: 10},
			}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want, wantVMs := runRecords(t, Run, c.mkCfg(), reqs)
			oracle, oracleVMs, err := RunReference(c.mkCfg(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			traced := c.mkCfg()
			traced.Obs = obs.NewRegistry()
			traced.Tracer = obs.NewTracer()
			got, gotVMs := runRecords(t, Run, traced, reqs)
			if want.Metrics != got.Metrics {
				t.Errorf("telemetry perturbed Metrics:\nplain  %+v\ntraced %+v", want.Metrics, got.Metrics)
			}
			if !reflect.DeepEqual(wantVMs, gotVMs) {
				t.Error("telemetry perturbed the VMRecord stream")
			}
			if oracle.Metrics != got.Metrics || !reflect.DeepEqual(oracleVMs, gotVMs) {
				t.Error("traced run diverges from the RunReference oracle")
			}
			if traced.Tracer.Len() == 0 {
				t.Error("tracer recorded nothing")
			}
		})
	}
}

// TestObsDisabledAllocFree pins the zero-cost contract on the real hot
// path: Run with nil Obs/Tracer must allocate exactly what the
// pre-instrumentation simulator did for this workload (379 allocations,
// measured at the commit before the telemetry layer landed). Any
// per-event or per-placement allocation on the disabled path would add
// hundreds — the 800-request workload makes the bound sharp.
func TestObsDisabledAllocFree(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 21, 800)
	st := ff(t, 3)
	cfg := Config{DB: db, Servers: 16, Strategy: st, BackfillDepth: 4}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(cfg, reqs); err != nil {
			t.Fatal(err)
		}
	})
	const baseline = 379 // measured pre-instrumentation, same workload
	if allocs > baseline+1 {
		t.Errorf("Run with telemetry disabled allocates %.0f, want <= %d (pre-instrumentation baseline)", allocs, baseline)
	}
}

// TestObsRunTelemetryContents sanity-checks that an instrumented run
// populates every pillar: hot-path counters, eventq counters, and a
// schema-valid trace whose timeline is internally consistent.
func TestObsRunTelemetryContents(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 33, 150)
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	cfg := Config{DB: db, Servers: 8, Strategy: ff(t, 3), BackfillDepth: 4, Obs: reg, Tracer: tr}
	res, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["sim_events_popped"] == 0 {
		t.Error("sim_events_popped not counted")
	}
	if got, want := snap.Counters["sim_place_attempts"]-snap.Counters["sim_place_rejected"], int64(res.TotalJobs); got != want {
		t.Errorf("accepted placements = %d, want TotalJobs = %d", got, want)
	}
	if snap.Counters["sim_intervals_closed"] == 0 {
		t.Error("sim_intervals_closed not counted")
	}
	if snap.Gauges["sim_queue_depth_highwater"] == 0 {
		t.Error("queue high-water gauge never raised (workload too sparse for the guard)")
	}
	if snap.Counters["sim_pricing_cache_hits"] == 0 || snap.Counters["sim_pricing_cache_misses"] == 0 {
		t.Error("pricing cache counters not populated")
	}
	if snap.Counters["eventq_cancelled"] == 0 {
		t.Error("eventq cancellations not counted (reschedules always cancel)")
	}

	var buf bytes.Buffer
	if err := tr.WriteTo(&buf, nil); err != nil {
		t.Fatal(err)
	}
	f, err := obs.ReadTraceFile(&buf)
	if err != nil {
		t.Fatalf("trace does not round-trip: %v", err)
	}
	var vmSpans, hostSpans, arrivals, counters int
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Phase == obs.PhaseComplete && ev.Cat == "vm":
			vmSpans++
			if ev.Dur < 0 {
				t.Fatalf("negative VM span duration: %+v", ev)
			}
		case ev.Phase == obs.PhaseComplete && ev.Cat == "server":
			hostSpans++
		case ev.Phase == obs.PhaseInstant && ev.Cat == "arrival":
			arrivals++
		case ev.Phase == obs.PhaseCounter:
			counters++
		}
	}
	if vmSpans != res.TotalVMs {
		t.Errorf("trace has %d VM spans, want TotalVMs = %d", vmSpans, res.TotalVMs)
	}
	if arrivals != res.TotalJobs {
		t.Errorf("trace has %d arrival instants, want TotalJobs = %d", arrivals, res.TotalJobs)
	}
	if hostSpans == 0 {
		t.Error("no server occupancy spans recorded")
	}
	if counters == 0 {
		t.Error("no queue-depth samples recorded")
	}
}
