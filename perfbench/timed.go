package main

import (
	"time"

	"pacevm/internal/core"
	"pacevm/internal/strategy"
)

// StrategyTimer accumulates the wall time a simulation spends inside its
// placement strategy. It belongs to one simulation at a time: the
// simulator calls its strategy from a single goroutine.
type StrategyTimer struct {
	Calls int64
	Busy  time.Duration
}

func (t *StrategyTimer) since(start time.Time) {
	t.Busy += time.Since(start)
	t.Calls++
}

// timedBase times Place and forwards Name.
type timedBase struct {
	inner strategy.Strategy
	t     *StrategyTimer
}

func (b timedBase) Name() string { return b.inner.Name() }

func (b timedBase) Place(servers []strategy.Server, vms []core.VMRequest) ([]int, bool) {
	start := time.Now()
	assign, ok := b.inner.Place(servers, vms)
	b.t.since(start)
	return assign, ok
}

type timedExplain struct {
	ex strategy.Explainer
	t  *StrategyTimer
}

func (e timedExplain) PlaceExplained(servers []strategy.Server, vms []core.VMRequest) ([]int, bool, strategy.PlaceInfo) {
	start := time.Now()
	assign, ok, info := e.ex.PlaceExplained(servers, vms)
	e.t.since(start)
	return assign, ok, info
}

type timedIndexed struct {
	ip strategy.IndexedPlacer
	t  *StrategyTimer
}

func (i timedIndexed) PlaceIndexed(idx *strategy.FleetIndex, vms []core.VMRequest, dst []int) ([]int, bool) {
	start := time.Now()
	assign, ok := i.ip.PlaceIndexed(idx, vms, dst)
	i.t.since(start)
	return assign, ok
}

// CanFit is a capacity hint, not a placement: it is forwarded untimed.
type timedHint struct{ h strategy.CapacityHinter }

func (h timedHint) CanFit(idx *strategy.FleetIndex, n int) (bool, bool) { return h.h.CanFit(idx, n) }

// One type per combination of optional interfaces, so the simulator's
// type assertions see exactly the interfaces the wrapped strategy has.
type (
	timedE struct {
		timedBase
		timedExplain
	}
	timedI struct {
		timedBase
		timedIndexed
	}
	timedH struct {
		timedBase
		timedHint
	}
	timedEI struct {
		timedBase
		timedExplain
		timedIndexed
	}
	timedEH struct {
		timedBase
		timedExplain
		timedHint
	}
	timedIH struct {
		timedBase
		timedIndexed
		timedHint
	}
	timedEIH struct {
		timedBase
		timedExplain
		timedIndexed
		timedHint
	}
)

// Timed wraps s so every placement call (Place, PlaceExplained,
// PlaceIndexed) is counted and timed into the returned timer. The
// wrapper is passive: it keeps whichever of strategy.Explainer,
// strategy.IndexedPlacer and strategy.CapacityHinter s implements and
// forwards every call unchanged, so a simulation takes the same code
// path and produces the same result with or without it.
func Timed(s strategy.Strategy) (strategy.Strategy, *StrategyTimer) {
	t := &StrategyTimer{}
	b := timedBase{inner: s, t: t}
	ex, isE := s.(strategy.Explainer)
	ip, isI := s.(strategy.IndexedPlacer)
	h, isH := s.(strategy.CapacityHinter)
	e, i, hh := timedExplain{ex, t}, timedIndexed{ip, t}, timedHint{h}
	switch {
	case isE && isI && isH:
		return timedEIH{b, e, i, hh}, t
	case isE && isI:
		return timedEI{b, e, i}, t
	case isE && isH:
		return timedEH{b, e, hh}, t
	case isI && isH:
		return timedIH{b, i, hh}, t
	case isE:
		return timedE{b, e}, t
	case isI:
		return timedI{b, i}, t
	case isH:
		return timedH{b, hh}, t
	}
	return b, t
}
