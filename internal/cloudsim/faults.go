package cloudsim

// The fault-injection layer of the optimized simulator: server crashes
// and recoveries as first-class events on the future-event list.
//
// A crash empties the server — resident VMs whose work already ran out
// retire normally, the rest are killed, their surviving progress decided
// by the configured checkpoint policy and the remainder re-queued as a
// synthetic single-VM request through normal admission — cancels the
// server's pending completion, powers it off (0 W until recovery), and
// excludes it from placement: the capacity index every placement goes
// through learns SetDown without a rebuild. Recovery reverses the
// exclusion and re-offers the queue.
//
// Re-queued requests keep the original Submit and MaxResponse, so the
// deadline judged at final completion — and the response/wait sums —
// account the whole outage-inflated lifetime of the VM, exactly once.
// TotalVMs/TotalJobs count submitted work only; a killed-and-redone VM
// is still one VM. NominalTime of the redo is the nominal-seconds still
// owed (original nominal minus checkpoint-surviving progress); a VM of
// a multi-VM job re-queues alone, since its siblings keep running.
//
// All of this state is allocated by setupFaults only when the config
// carries a schedule; without one, s.faulty stays false and the run is
// byte-identical to a pre-fault build (pinned by the golden tests).

import (
	"fmt"

	"pacevm/internal/faults"
	"pacevm/internal/trace"
	"pacevm/internal/units"
)

// downSpan is one server outage, closed at recovery (or at the end of
// the run for servers still down, clamped to the workload span).
type downSpan struct {
	server   int
	from, to units.Seconds
}

// setupFaults switches the simulator into fault mode: per-server down
// state and the sorted crash/recover schedule staged for
// scheduleFaultsUntil.
func (s *sim) setupFaults() {
	s.faulty = true
	s.checkpoint = s.cfg.Checkpoint
	// Requeues append to s.reqs; work on a copy so the caller's slice is
	// never grown into.
	s.reqs = append([]trace.Request(nil), s.reqs...)
	s.downSince = make([]units.Seconds, s.cfg.Servers)
	for i := range s.downSince {
		s.downSince[i] = -1
	}
	// Sort chronologically so same-instant events resolve by schedule
	// sequence deterministically regardless of the input order, and a
	// touching Up/Down pair on one server resolves recover-first.
	sch := append(faults.Schedule(nil), s.cfg.Faults...)
	sch.Sort()
	s.faultSch = sch
}

// scheduleFaultsUntil places every schedule entry whose crash instant
// lies before limit on the event list (pass +Inf to admit the whole
// schedule, as Run does). Entry j's crash/recover pair goes on keys
// Servers+2j / +2j+1 under the pre-assigned fault-band sequences
// seqFaultBase+2j / +2j+1, so the pop order among simultaneous fault
// events is fixed by the sorted schedule no matter how the admission is
// windowed. A recover event may lie beyond limit; it is scheduled with
// its pair so an outage can never be admitted without its end.
func (s *sim) scheduleFaultsUntil(limit units.Seconds) {
	for ; s.faultNext < len(s.faultSch); s.faultNext++ {
		e := s.faultSch[s.faultNext]
		if e.Down >= limit {
			return
		}
		seq := seqFaultBase + 2*uint64(s.faultNext)
		key := len(s.srv) + 2*s.faultNext
		s.events.ScheduleSequenced(key, e.Down, seq)
		s.events.ScheduleSequenced(key+1, e.Up, seq+1)
	}
}

// crash takes a server down: retires finished residents, kills the
// rest per the checkpoint policy, re-queues the killed work, cancels
// the pending completion, and excludes the server from placement.
func (s *sim) crash(serverIdx int) error {
	sv := s.srv[serverIdx]
	if s.fleet.Down(serverIdx) {
		return fmt.Errorf("cloudsim: crash event for server %d which is already down", serverIdx)
	}
	if err := s.advance(sv); err != nil {
		return err
	}
	s.metrics.FaultsInjected++
	s.stats.faultsInjected.Inc()

	const eps = 1e-6 // same completion tolerance as (*sim).complete
	wasHosting := len(sv.vms) > 0
	for i, vm := range sv.vms {
		s.applyAlloc(sv, vm.class, -1)
		if sv.rem[i] <= eps {
			// The VM's work ran out at or before the crash instant (its
			// completion event may still be pending behind this one):
			// it finished, it is not a casualty.
			s.retire(sv, vm)
		} else {
			s.kill(sv, vm, sv.rem[i])
		}
		s.recycle(vm)
		sv.vms[i] = nil
	}
	sv.vms, sv.rem, sv.cls = sv.vms[:0], sv.rem[:0], sv.cls[:0]
	if wasHosting && sv.activeFrom >= 0 {
		s.traceHosting(sv, sv.activeFrom)
		hosted := float64(s.now - sv.activeFrom)
		s.metrics.ActiveServerSeconds += hosted
		sv.hostedSeconds += hosted
		sv.activeFrom = -1
	}
	if err := s.reschedule(sv); err != nil { // cancels the stale completion
		return err
	}
	s.downSince[serverIdx] = s.now
	if s.sampler != nil {
		s.sampler.serverIdle(serverIdx)
	}
	s.fleet.SetDown(serverIdx)
	s.traceQueueDepth()
	return nil
}

// kill discards a resident VM: the checkpoint policy decides how much
// of its progress survives, the lost remainder is accounted, and the
// still-owed work re-enters the queue as a synthetic single-VM request
// under the VM's original submit time and response bound. remaining is
// the VM's work-left counter, read from the server's rem slice before
// the resident arrays are truncated.
func (s *sim) kill(sv *simServer, vm *simVM, remaining float64) {
	done := float64(vm.nominal) - remaining
	if done < 0 {
		done = 0
	}
	if done > float64(vm.nominal) {
		done = float64(vm.nominal)
	}
	surviving := float64(s.checkpoint.Surviving(units.Seconds(done)))
	if surviving < 0 {
		surviving = 0
	}
	if surviving > done {
		surviving = done
	}
	s.metrics.VMsKilled++
	s.metrics.WorkLost += units.Seconds(done - surviving)
	// The redo request owes nominal − surviving; the kill swaps that for
	// the original nominal in the outstanding-work gauge.
	s.loadLeft -= surviving
	s.stats.vmsKilled.Inc()
	s.stats.workLostSeconds.Add(int64(done - surviving))
	s.traceVMKill(sv, vm)

	var maxResp units.Seconds
	if vm.deadline > 0 {
		maxResp = vm.deadline - vm.submit
	}
	ridx := len(s.reqs)
	s.reqs = append(s.reqs, trace.Request{
		ID:          vm.jobID,
		Submit:      vm.submit,
		Class:       vm.class,
		VMs:         1,
		NominalTime: vm.nominal - units.Seconds(surviving),
		MaxResponse: maxResp,
	})
	s.metrics.Requeues++
	s.stats.requeues.Inc()
	s.queue = append(s.queue, ridx)
	s.stats.queueDepthHW.SetMax(int64(s.qlen()))
	if s.audit != nil {
		s.audit.kill(vm, sv.id, s.now, units.Seconds(done-surviving), ridx)
	}
	if s.rec != nil {
		s.recordRequeue(vm.id, vm.jobID, sv.id, ridx, done-surviving)
	}
}

// recoverServer brings a crashed server back: the outage is logged, the
// server rejoins the capacity index, and its accounting clock resumes
// at now (nothing to integrate — a down server hosts nothing and draws
// nothing).
func (s *sim) recoverServer(serverIdx int) error {
	sv := s.srv[serverIdx]
	from := s.downSince[serverIdx]
	if from < 0 {
		return fmt.Errorf("cloudsim: recover event for server %d which is not down", serverIdx)
	}
	s.downLog = append(s.downLog, downSpan{server: serverIdx, from: from, to: s.now})
	s.downSince[serverIdx] = -1
	sv.lastUpdate = s.now
	s.fleet.SetUp(serverIdx)
	s.traceDown(sv, from)
	return nil
}

// foldDowntime closes the outage log at the end of the run and returns
// per-server down-seconds clamped to the workload span — the carve-out
// of the idle-power billing and the numerator of AvailabilityPct. Nil
// in fault-free runs.
func (s *sim) foldDowntime() []float64 {
	if !s.faulty {
		return nil
	}
	for id, from := range s.downSince {
		if from >= 0 {
			s.downLog = append(s.downLog, downSpan{server: id, from: from, to: s.lastFinish})
			s.traceDown(s.srv[id], from)
		}
	}
	down := make([]float64, s.cfg.Servers)
	for _, d := range s.downLog {
		lo, hi := d.from, d.to
		if lo < s.firstSubmit {
			lo = s.firstSubmit
		}
		if hi > s.lastFinish {
			hi = s.lastFinish
		}
		if hi > lo {
			sec := float64(hi - lo)
			down[d.server] += sec
			s.metrics.DownServerSeconds += sec
		}
	}
	return down
}
