package cloudsim

// Online invariant checks for obs.Watchdog: each check re-derives an
// incrementally-maintained simulator invariant from first principles
// and compares. All checks are strictly read-only — a run with the
// watchdog attached must stay byte-identical to the same run without
// it (pinned by TestWatchdogDoesNotPerturb) — and they run only every
// Watchdog.Every() popped events plus once at finalize, so the sweeps
// stay invisible outside debug runs.

import (
	"fmt"
	"math"

	"pacevm/internal/model"
)

// registerWatchdogChecks wires the simulator's invariants into s.wd.
// Called from newSim only when Config.Watchdog is attached.
func (s *sim) registerWatchdogChecks() {
	s.wd.Register("work-conservation", s.checkWorkConservation)
	s.wd.Register("queue-sanity", s.checkQueueSanity)
	s.wd.Register("capacity-index", s.checkCapacityIndex)
	s.wd.Register("occupancy", s.checkOccupancy)
	s.wd.Register("energy-integral", s.checkEnergyIntegral)
}

// checkWorkConservation re-derives the outstanding-work gauge: admitted
// but unfinished nominal-seconds must equal pending arrivals plus
// queued requests plus resident VMs. loadLeft is maintained by one
// add/sub per admission, kill and retirement, so a drift here means a
// placement or fault path lost or duplicated work. The tolerance scales
// with the work ever added (loadAdded), the magnitude the rounding of
// those adds and subs accumulates over, and not with the outstanding
// work, which falls to zero at finalize while the rounding does not.
func (s *sim) checkWorkConservation() error {
	// A corrupted cursor would make the re-derivation itself crash;
	// report instead of walking out of bounds (queue-sanity pinpoints
	// the cursor separately).
	if s.arrNext < 0 || s.arrNext > len(s.arrQ) || s.qhead < 0 || s.qhead > len(s.queue) {
		return fmt.Errorf("admission cursors out of bounds (arrNext %d/%d, qhead %d/%d); cannot re-derive work",
			s.arrNext, len(s.arrQ), s.qhead, len(s.queue))
	}
	derived := 0.0
	for _, a := range s.arrQ[s.arrNext:] {
		r := &s.reqs[a.idx]
		derived += float64(r.NominalTime) * float64(r.VMs)
	}
	for i := 0; i < s.qlen(); i++ {
		idx := s.qat(i)
		if idx < 0 || idx >= len(s.reqs) {
			return fmt.Errorf("queued request index %d outside the stream of %d; cannot re-derive work", idx, len(s.reqs))
		}
		r := &s.reqs[idx]
		derived += float64(r.NominalTime) * float64(r.VMs)
	}
	for _, sv := range s.srv {
		for _, vm := range sv.vms {
			derived += float64(vm.nominal)
		}
	}
	tol := 1e-6 * (1 + s.loadAdded)
	if diff := math.Abs(derived - s.loadLeft); diff > tol {
		return fmt.Errorf("loadLeft %g but re-derived outstanding work %g (diff %g)", s.loadLeft, derived, diff)
	}
	return nil
}

// checkQueueSanity validates the admission structures: cursor and queue
// bounds, in-range request indices, and no request both queued twice.
func (s *sim) checkQueueSanity() error {
	if s.arrNext < 0 || s.arrNext > len(s.arrQ) {
		return fmt.Errorf("arrival cursor %d outside [0, %d]", s.arrNext, len(s.arrQ))
	}
	if s.qhead < 0 || s.qhead > len(s.queue) {
		return fmt.Errorf("queue head %d outside [0, %d]", s.qhead, len(s.queue))
	}
	seen := make(map[int]struct{}, s.qlen())
	for i := 0; i < s.qlen(); i++ {
		idx := s.qat(i)
		if idx < 0 || idx >= len(s.reqs) {
			return fmt.Errorf("queued request index %d outside the stream of %d", idx, len(s.reqs))
		}
		if _, dup := seen[idx]; dup {
			return fmt.Errorf("request %d queued twice", idx)
		}
		seen[idx] = struct{}{}
	}
	return nil
}

// checkCapacityIndex audits the FleetIndex against ground truth: each
// server's indexed allocation must match the simulator's, and the
// index's internal level/overflow/free-capacity structures and, once
// built, its allocation classes must be consistent with those
// allocations (strategy.FleetIndex.AuditInvariants).
func (s *sim) checkCapacityIndex() error {
	return s.fleet.AuditInvariants(func(i int) model.Key { return s.srv[i].alloc })
}

// checkOccupancy re-derives the occupied-server bitmap and the active
// count from the resident sets.
func (s *sim) checkOccupancy() error {
	active := 0
	for _, sv := range s.srv {
		hosting := len(sv.vms) > 0
		if hosting {
			active++
		}
		if bit := s.occ[sv.id>>6]>>(sv.id&63)&1 != 0; bit != hosting {
			return fmt.Errorf("server %d occ bit %v but %d resident VMs", sv.id, bit, len(sv.vms))
		}
		if hosting && sv.activeFrom < 0 {
			return fmt.Errorf("server %d hosts %d VMs with no activeFrom mark", sv.id, len(sv.vms))
		}
	}
	if active != s.active {
		return fmt.Errorf("active-server count %d but %d servers host VMs", s.active, active)
	}
	return nil
}

// checkEnergyIntegral validates the energy accounting: per-server
// integrals must be finite, non-negative and not ahead of the clock,
// and — when a fleet sampler is attached — their sum must reconcile
// with the sampler's independently-accumulated busy-energy integral
// (both sum the same power×dt products, in different groupings).
func (s *sim) checkEnergyIntegral() error {
	sum := 0.0
	for _, sv := range s.srv {
		e := float64(sv.energy)
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return fmt.Errorf("server %d energy %g is not a finite non-negative integral", sv.id, e)
		}
		if sv.lastUpdate > s.now {
			return fmt.Errorf("server %d accounting clock %g ahead of now %g", sv.id, float64(sv.lastUpdate), float64(s.now))
		}
		sum += e
	}
	if s.sampler != nil {
		busy := float64(s.sampler.BusyEnergy()) + float64(s.sampler.IdleEnergy())
		tol := 1e-9 * (1 + math.Abs(sum))
		if diff := math.Abs(sum - busy); diff > tol {
			return fmt.Errorf("per-server energy sum %g but sampler integral %g (diff %g)", sum, busy, diff)
		}
	}
	return nil
}
