package main

import (
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/model"
	"pacevm/internal/strategy"
)

func testDB(t *testing.T) *model.DB {
	t.Helper()
	cfg := campaign.DefaultConfig()
	cfg.FullGridTotal = 16
	db, _, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTimedKeepsInterfaces checks the decorator exposes exactly the
// optional interfaces of the strategy it wraps.
func TestTimedKeepsInterfaces(t *testing.T) {
	db := testDB(t)
	pa, err := simSpecs["pa"].strategy(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := simSpecs["ff"].strategy(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []strategy.Strategy{pa, ff, &strategy.BestFit{Multiplex: 2}} {
		w, _ := Timed(s)
		_, e0 := s.(strategy.Explainer)
		_, e1 := w.(strategy.Explainer)
		_, i0 := s.(strategy.IndexedPlacer)
		_, i1 := w.(strategy.IndexedPlacer)
		_, h0 := s.(strategy.CapacityHinter)
		_, h1 := w.(strategy.CapacityHinter)
		if e0 != e1 || i0 != i1 || h0 != h1 || w.Name() != s.Name() {
			t.Errorf("%s: wrapped has explain=%v indexed=%v hint=%v name %q, want %v %v %v %q",
				s.Name(), e1, i1, h1, w.Name(), e0, i0, h0, s.Name())
		}
	}
}

// TestTimedSimulationIdentical runs small sim-pa and sim-ff-fleet
// configurations bare and decorated: the metrics must be identical and
// the timer must have seen every placement call.
func TestTimedSimulationIdentical(t *testing.T) {
	db := testDB(t)
	for name, sp := range map[string]simSpec{
		"sim-pa":       {servers: 66, vms: 2000, pa: true},
		"sim-ff-fleet": {servers: 200, requests: 20_000, gap: 3},
	} {
		reqs, err := sp.trace(5)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sp.strategy(db, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cloudsim.Config{DB: db, Servers: sp.servers, Strategy: st, IdleServerPower: -1}
		bare, err := cloudsim.Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		var timer *StrategyTimer
		cfg.Strategy, timer = Timed(st)
		timed, err := cloudsim.Run(cfg, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if timed.Metrics != bare.Metrics {
			t.Errorf("%s: decorated run differs:\n got %+v\nwant %+v", name, timed.Metrics, bare.Metrics)
		}
		if timer.Calls < int64(len(reqs)) || timer.Busy <= 0 {
			t.Errorf("%s: timer saw %d calls in %v for %d requests", name, timer.Calls, timer.Busy, len(reqs))
		}
	}
}
