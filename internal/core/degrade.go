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

import "pacevm/internal/partition"

// firstFit is the budget-exhaustion fallback (see degrade.go): each VM
// in request order goes to the lowest-index server that admits it, and
// each server's VMs are then priced as one block against its original
// allocation, in first-use order. An untouched server admits exactly
// when its class's first untouched member does, so the lowest admitting
// server is the first admitting untouched class's lead (the classes
// come in order of it) or an earlier moved candidate — a touched server
// or an advanced class's next member — and the walk over classes places
// exactly as a scan of the whole fleet would.
func (w *searchWorker) firstFit() (candidate, error) {
	sc := w.sc
	w.clearTouched()
	var at [partition.MaxN]int // touched-server index per VM
	for vi := range sc.vms {
		t := sc.typeOf[vi]
		blockKey, bmask := w.compKey[w.radix[t]], typeMask(1)<<t
		var pick blockCand
		found := false
		for ci := range sc.classes {
			c := &sc.classes[ci]
			if w.used[ci] == 0 && sc.priceBlock(c.Alloc, c.Alloc.Add(blockKey), bmask).ok {
				pick, found = blockCand{serverIdx: c.Members[0], class: int32(ci), touched: -1}, true
				break
			}
		}
		for _, c := range w.moved { // ascending server index
			if found && c.serverIdx > pick.serverIdx {
				break
			}
			base, mask := w.candBase(c)
			after := base.Add(blockKey)
			if sc.priceBlock(base, after, bmask).ok && sc.placedOK(after, mask) {
				pick, found = c, true
				break
			}
		}
		if !found {
			return candidate{}, ErrInfeasible
		}
		base, _ := w.candBase(pick)
		at[vi] = w.take(pick, base.Add(blockKey), bmask)
	}
	var c candidate
	vs, ps := len(w.arenaVMs), len(w.arenaPlaces)
	for ti, t := range w.touched {
		n := 0
		for vi := range sc.vms {
			if at[vi] == ti {
				w.arenaVMs = append(w.arenaVMs, vi)
				n++
			}
		}
		// The incremental probes already admitted exactly this final
		// state (t.base, with the block's types in t.mask), so the
		// pricing cannot fail.
		v := sc.priceBlock(sc.classes[t.class].Alloc, t.base, t.mask)
		if !v.ok {
			return candidate{}, ErrInfeasible
		}
		w.arenaPlaces = append(w.arenaPlaces, blockPlace{
			server: t.serverIdx, n: n, after: t.base, time: v.time, energy: v.energy,
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
