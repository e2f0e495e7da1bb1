package core

// Graceful degradation of the partition search. A truncated exhaustive
// search cannot simply return "the best candidate so far": the
// normalization maxima and the first-of-the-list tie-break are defined
// over the full enumeration, so a partial frontier is a different — and
// scheduling-dependent — algorithm. Instead, when Config.SearchBudget
// exhausts (or Config.Cancel fires), Allocate falls back to this
// first-fit placement: each VM in request order goes to the
// lowest-index server that admits it under the same capacity,
// per-class and QoS checks the search applies. The fallback walks the
// same server classes as the search, costs O(VMs × classes), is
// allocation-order deterministic, and shares the pricing primitive
// (priceBlock) with the search, so degraded placements remain fully
// priced and QoS-checked — only the energy/performance optimization is
// surrendered.

import (
	"pacevm/internal/model"
	"pacevm/internal/partition"
)

// firstFit is the budget-exhaustion fallback (see degrade.go): each VM
// in request order goes to the lowest-index server that admits it, and
// each server's VMs are then priced as one block against its original
// allocation, in first-use order. The lowest admitting server is always
// a candidate of collectCands — an untouched server admits exactly when
// its class's first untouched member does — so the walk over classes
// places exactly as a scan of the whole fleet would.
func (w *searchWorker) firstFit() (candidate, error) {
	sc := w.sc
	w.clearTouched()
	var at [partition.MaxN]int // touched-server index per VM
	for vi := range sc.vms {
		t := sc.typeOf[vi]
		w.collectCands()
		placed := false
		for _, c := range w.cands {
			base, mask := w.candBase(c)
			v := sc.priceBlock(base, 1<<(4*blockSig(t)), sc.typeKey[t])
			if !v.ok || !sc.placedOK(v.after, mask) {
				continue
			}
			at[vi] = w.take(c, v.after, 1<<t)
			placed = true
			break
		}
		if !placed {
			return candidate{}, ErrInfeasible
		}
	}
	c := candidate{idx: -1}
	vs, ps := len(w.arenaVMs), len(w.arenaPlaces)
	for ti, t := range w.touched {
		var sig blockSig
		var blockKey model.Key
		n := 0
		for vi := range sc.vms {
			if at[vi] == ti {
				w.arenaVMs = append(w.arenaVMs, vi)
				sig += 1 << (4 * blockSig(sc.typeOf[vi]))
				blockKey = blockKey.Add(sc.typeKey[sc.typeOf[vi]])
				n++
			}
		}
		// The incremental probes already admitted exactly this final
		// state, so the pricing cannot fail.
		v := sc.priceBlock(sc.classes[t.class].Alloc, sig, blockKey)
		if !v.ok {
			return candidate{}, ErrInfeasible
		}
		w.arenaPlaces = append(w.arenaPlaces, blockPlace{
			server: t.serverIdx, n: n, after: v.after, time: v.time, energy: v.energy,
		})
		c.energy += v.energy
		if v.time > c.time {
			c.time = v.time
		}
	}
	c.vms = w.arenaVMs[vs:len(w.arenaVMs):len(w.arenaVMs)]
	c.places = w.arenaPlaces[ps:len(w.arenaPlaces):len(w.arenaPlaces)]
	return c, nil
}
