package cloudsim

// Watchdog acceptance: a clean run — monolithic or sharded, with faults,
// backfill and consolidation active — sweeps all five invariants with
// zero violations and zero perturbation, and a seeded corruption of the
// incremental state makes the matching check fire.

import (
	"reflect"
	"strings"
	"testing"

	"pacevm/internal/obs"
	"pacevm/internal/workload"
)

func TestWatchdogDoesNotPerturb(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	plain, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	cfg.Sampler = NewFleetSampler(2048)
	cfg.Watchdog = obs.NewWatchdog(64) // sweep aggressively
	watched, err := Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != watched.Metrics {
		t.Errorf("watchdog perturbed Metrics:\noff %+v\non  %+v", plain.Metrics, watched.Metrics)
	}
	if !reflect.DeepEqual(plain.VMs, watched.VMs) {
		t.Error("watchdog perturbed VMRecords")
	}
	if v := cfg.Watchdog.Violations(); len(v) != 0 {
		t.Fatalf("clean stress run reported violations: %v", v)
	}
	snap := cfg.Obs.Snapshot()
	if snap.Counters["sim_invariant_checks_total"] < 5 {
		t.Errorf("sim_invariant_checks_total = %d, want at least one full sweep", snap.Counters["sim_invariant_checks_total"])
	}
	if snap.Counters["sim_invariant_violations_total"] != 0 {
		t.Errorf("sim_invariant_violations_total = %d on a clean run", snap.Counters["sim_invariant_violations_total"])
	}
}

// A long first-fit run drains every admitted VM, so the outstanding work
// falls back to zero at finalize while loadLeft keeps the rounding of
// some 350k adds and subs (~1e-6 nominal-seconds here). The
// work-conservation tolerance scales with the work ever added, so that
// rounding is not a violation.
func TestWatchdogLongFirstFitRunClean(t *testing.T) {
	reqs := allocWorkload(t, 1, 100_000, 1.5)
	wd := obs.NewWatchdog(1 << 16)
	cfg := Config{DB: sharedDB(t), Servers: 1000, Strategy: ff(t, 3), Watchdog: wd}
	if _, err := Run(cfg, reqs); err != nil {
		t.Fatal(err)
	}
	if v := wd.Violations(); len(v) != 0 {
		t.Fatalf("clean first-fit run reported violations: %v", v)
	}
}

// Sharded runs give every shard a private watchdog over its own
// simulator; a clean stress run stays clean through the merge, and the
// user's handle is reusable across runs.
func TestWatchdogSharded(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Obs = obs.NewRegistry()
	cfg.Watchdog = obs.NewWatchdog(64)
	for run := 0; run < 2; run++ {
		res, err := RunSharded(cfg, reqs, ShardConfig{Shards: 4, Steal: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.VMsKilled == 0 {
			t.Fatal("stress config injected no kills; invariants undertested")
		}
		if v := cfg.Watchdog.Violations(); len(v) != 0 {
			t.Fatalf("run %d: clean sharded run reported violations: %v", run, v)
		}
	}
}

// corruptedSim builds a ready simulator for white-box corruption.
func corruptedSim(t *testing.T) *sim {
	t.Helper()
	cfg, reqs := shardedStressConfig(t)
	cfg.Watchdog = obs.NewWatchdog(1)
	cfg, err := validateConfig(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSim(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Seeded corruptions: each check must fire on exactly the drift it
// re-derives, proving the watchdog detects real incremental-state
// corruption and not just trivially-true predicates.
func TestWatchdogFiresOnCorruption(t *testing.T) {
	for _, tc := range []struct {
		check   string
		corrupt func(*sim)
	}{
		{"work-conservation", func(s *sim) { s.loadLeft += 7 }},
		{"queue-sanity", func(s *sim) { s.qhead = -1 }},
		{"occupancy", func(s *sim) { s.occ[0] |= 1 }}, // bit set, no resident VMs
		{"energy-integral", func(s *sim) { s.srv[0].energy = -1 }},
	} {
		t.Run(tc.check, func(t *testing.T) {
			s := corruptedSim(t)
			s.wd.RunChecks(0)
			if v := s.wd.Violations(); len(v) != 0 {
				t.Fatalf("fresh simulator already violating: %v", v)
			}
			tc.corrupt(s)
			s.wd.RunChecks(1)
			v := s.wd.Violations()
			if len(v) == 0 {
				t.Fatalf("corruption of %s went undetected", tc.check)
			}
			found := false
			for _, viol := range v {
				if viol.Check == tc.check {
					found = true
					if viol.At != 1 {
						t.Errorf("violation stamped at t=%g, want 1", viol.At)
					}
				}
			}
			if !found {
				t.Fatalf("corruption of %s fired %v instead", tc.check, v)
			}
		})
	}
}

// The capacity-index check audits the FleetIndex against ground-truth
// allocation totals; detaching a server's indexed occupancy from its
// real allocation must fire.
func TestWatchdogCapacityIndexFires(t *testing.T) {
	s := corruptedSim(t)
	s.wd.RunChecks(0)
	if v := s.wd.Violations(); len(v) != 0 {
		t.Fatalf("fresh simulator already violating: %v", v)
	}
	// Move a phantom VM through the index only: the index now claims an
	// occupancy the allocation table does not have.
	s.fleet.Add(0, workload.ClassCPU, 1)
	s.wd.RunChecks(1)
	found := false
	for _, viol := range s.wd.Violations() {
		if viol.Check == "capacity-index" {
			found = true
		}
	}
	if !found {
		t.Fatalf("phantom index occupancy went undetected: %v", s.wd.Violations())
	}
}

// Violations surface as a structured report: the String form carries
// shard, time, check and detail — what /debug/dash and the CLI print.
func TestWatchdogViolationReport(t *testing.T) {
	s := corruptedSim(t)
	s.loadLeft += 7
	s.wd.RunChecks(3)
	v := s.wd.Violations()
	if len(v) == 0 {
		t.Fatal("no violation recorded")
	}
	str := v[0].String()
	for _, want := range []string{"work-conservation", "t=3", "loadLeft"} {
		if !strings.Contains(str, want) {
			t.Errorf("report %q missing %q", str, want)
		}
	}
}
