package cloudsim

// The reference simulator: the naive transcription of the event loop,
// preserved as the equivalence oracle for the optimized Run. It lives in
// a test file because only the golden tests and the large-simulation
// baseline benchmark run it; no binary links it. It rebuilds
// the strategy's fleet view on every placement attempt, formats VM
// identifiers eagerly with fmt.Sprintf, allocates one boxed event per
// schedule on a container/heap binary heap, and rescans the whole fleet
// for the active-server peak — exactly the costs Run eliminates. The
// golden tests require Run and RunReference to produce byte-identical
// Metrics and per-VM records on seeded fleets across strategies,
// backfill depths, and the consolidator path: the oracle returns its
// VMRecord stream, and Run's is projected from the finished spans of
// its VMAudit (auditRecords), the per-VM data pacevm-sim -vm-audit
// exports.
//
// Both paths share the queue-drain semantics, including the two fixes
// over the original transcription: a mid-commit accounting error aborts
// the run instead of stranding half-placed VMs (tryPlace used to report
// "not placed" after mutating servers), and a successful backfill
// re-checks the blocked head instead of restarting the whole window.

import (
	"container/heap"
	"fmt"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/migrate"
	"pacevm/internal/model"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// refItem is one boxed event on the reference future-event list.
type refItem struct {
	at  units.Seconds
	seq uint64
	ev  interface{}
	pos int // heap index; -1 once popped or cancelled
}

// refQueue is a binary min-heap of boxed events ordered by
// (timestamp, schedule sequence) — the ordering contract eventq.Queue
// keeps, so both simulators break timestamp ties identically.
type refQueue struct {
	items []*refItem
	seq   uint64
}

func (q *refQueue) Len() int { return len(q.items) }
func (q *refQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
func (q *refQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].pos = i
	q.items[j].pos = j
}
func (q *refQueue) Push(x interface{}) {
	it := x.(*refItem)
	it.pos = len(q.items)
	q.items = append(q.items, it)
}
func (q *refQueue) Pop() interface{} {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	it.pos = -1
	return it
}

func (q *refQueue) schedule(at units.Seconds, ev interface{}) *refItem {
	it := &refItem{at: at, seq: q.seq, ev: ev}
	q.seq++
	heap.Push(q, it)
	return it
}

func (q *refQueue) cancel(it *refItem) {
	if it == nil || it.pos < 0 {
		return
	}
	heap.Remove(q, it.pos)
}

func (q *refQueue) pop() (units.Seconds, interface{}, bool) {
	if len(q.items) == 0 {
		return 0, nil, false
	}
	it := heap.Pop(q).(*refItem)
	return it.at, it.ev, true
}

// VMRecord is the per-VM outcome the oracle produces and the golden
// tests compare.
type VMRecord struct {
	JobID      int
	Class      workload.Class
	Server     int
	Submit     units.Seconds
	Placed     units.Seconds
	Completion units.Seconds
	Deadline   units.Seconds
	Violated   bool
}

// auditRecords projects a run's finished audit spans onto VMRecord, in
// span order. A span carries every field but the deadline, which
// tryPlace sets to Submit + MaxResponse of the span's request (found
// by job ID; a crash redo keeps its job's ID and submit).
func auditRecords(t testing.TB, a *VMAudit, reqs []trace.Request) []VMRecord {
	t.Helper()
	maxResp := make(map[int]units.Seconds, len(reqs))
	for _, r := range reqs {
		if m, dup := maxResp[r.ID]; dup && m != r.MaxResponse {
			t.Fatalf("job ID %d names requests with different MaxResponse; its spans' deadlines are ambiguous", r.ID)
		}
		maxResp[r.ID] = r.MaxResponse
	}
	var out []VMRecord
	for _, sp := range a.Spans() {
		if sp.Outcome != AuditFinished {
			continue
		}
		out = append(out, VMRecord{
			JobID:      sp.JobID,
			Class:      sp.Class,
			Server:     sp.Server,
			Submit:     sp.Submit,
			Placed:     sp.Placed,
			Completion: sp.End,
			Deadline:   sp.Submit + maxResp[sp.JobID],
			Violated:   sp.DeadlineMiss,
		})
	}
	return out
}

// runRecords runs cfg through run with a VMAudit attached (a fresh one
// unless cfg carries its own) and returns the result with the audit's
// per-VM records. A run error is fatal.
func runRecords(t testing.TB, run func(Config, []trace.Request) (Result, error), cfg Config, reqs []trace.Request) (Result, []VMRecord) {
	t.Helper()
	if cfg.Audit == nil {
		cfg.Audit = NewVMAudit()
	}
	res, err := run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return res, auditRecords(t, cfg.Audit, reqs)
}

// runReference is RunReference in Run's signature, records dropped.
func runReference(cfg Config, reqs []trace.Request) (Result, error) {
	res, _, err := RunReference(cfg, reqs)
	return res, err
}

// sharded adapts RunSharded under sc to runRecords.
func sharded(sc ShardConfig) func(Config, []trace.Request) (Result, error) {
	return func(cfg Config, reqs []trace.Request) (Result, error) { return RunSharded(cfg, reqs, sc) }
}

type refArrival struct{ req int }
type refCompletion struct{ server int }

// refVM is one running VM in the reference path. It keeps the original
// array-of-structs layout — remaining lives on the VM — deliberately:
// the oracle stays a direct transcription, while the optimized
// simulator's simVM moved its work-left counter into the server's
// structure-of-arrays mirror.
type refVM struct {
	id        int
	uid       string
	jobID     int
	class     workload.Class
	remaining float64 // nominal-seconds of work left
	submit    units.Seconds
	placed    units.Seconds
	deadline  units.Seconds // absolute; 0 = unconstrained
	nominal   units.Seconds
}

// refServer is one physical server's live state in the reference path.
type refServer struct {
	id            int
	vms           []*refVM
	alloc         model.Key
	lastUpdate    units.Seconds
	energy        units.Joules
	next          *refItem
	activeFrom    units.Seconds
	hostedSeconds float64
}

type refSim struct {
	cfg    Config
	reqs   []trace.Request
	events refQueue
	now    units.Seconds
	srv    []*refServer
	queue  []int // indices into reqs, FIFO
	cache  map[model.Key]allocInfo
	refT   [workload.NumClasses]units.Seconds

	uidSeq      int
	records     []VMRecord
	metrics     Metrics
	responseSum float64
	waitSum     float64
	firstSubmit units.Seconds
	lastFinish  units.Seconds
}

// RunReference simulates the request stream with the reference
// implementation. It accepts the same Config and must return exactly the
// same Result as Run, plus the per-VM records Run's audit must project
// to; it exists as the oracle the golden tests hold the optimized path
// against, and as the baseline the large-simulation benchmarks measure
// speedups from.
func RunReference(cfg Config, reqs []trace.Request) (Result, []VMRecord, error) {
	if len(cfg.Faults) > 0 {
		// The oracle predates the fault model and is deliberately frozen;
		// fault-injected runs have no naive twin to compare against.
		return Result{}, nil, fmt.Errorf("cloudsim: RunReference does not support fault injection (%d scheduled faults); use Run", len(cfg.Faults))
	}
	cfg, err := validateConfig(cfg, reqs)
	if err != nil {
		return Result{}, nil, err
	}
	s := &refSim{
		cfg:         cfg,
		reqs:        reqs,
		firstSubmit: reqs[0].Submit,
	}
	if s.refT, err = refTimes(cfg.DB); err != nil {
		return Result{}, nil, err
	}
	s.cache = map[model.Key]allocInfo{}
	s.srv = make([]*refServer, cfg.Servers)
	for i := range s.srv {
		s.srv[i] = &refServer{id: i, activeFrom: -1}
	}
	for i, r := range reqs {
		if err := r.Validate(); err != nil {
			return Result{}, nil, err
		}
		if r.Submit < s.firstSubmit {
			s.firstSubmit = r.Submit
		}
		s.events.schedule(r.Submit, refArrival{req: i})
		s.metrics.TotalJobs++
		s.metrics.TotalVMs += r.VMs
		s.metrics.NominalWork += r.NominalTime * units.Seconds(r.VMs)
	}

	for {
		at, ev, ok := s.events.pop()
		if !ok {
			break
		}
		s.now = at
		switch e := ev.(type) {
		case refArrival:
			s.queue = append(s.queue, e.req)
			if err := s.drainQueue(); err != nil {
				return Result{}, nil, err
			}
		case refCompletion:
			if err := s.complete(e.server); err != nil {
				return Result{}, nil, err
			}
			if err := s.consolidate(); err != nil {
				return Result{}, nil, err
			}
			if err := s.drainQueue(); err != nil {
				return Result{}, nil, err
			}
		default:
			return Result{}, nil, fmt.Errorf("cloudsim: unknown event %T", ev)
		}
	}
	if len(s.queue) > 0 {
		return Result{}, nil, fmt.Errorf("cloudsim: %d jobs still queued at end of simulation (strategy starved them)", len(s.queue))
	}

	span := s.lastFinish - s.firstSubmit
	for _, sv := range s.srv {
		if len(sv.vms) != 0 {
			return Result{}, nil, fmt.Errorf("cloudsim: server %d still hosts %d VMs at end", sv.id, len(sv.vms))
		}
		idle := float64(span) - sv.hostedSeconds
		if idle > 0 {
			sv.energy += cfg.IdleServerPower.Times(units.Seconds(idle))
		}
		s.metrics.Energy += sv.energy
	}
	if s.metrics.TotalVMs > 0 {
		s.metrics.AvgResponse = units.Seconds(s.responseSum / float64(s.metrics.TotalVMs))
		s.metrics.AvgWait = units.Seconds(s.waitSum / float64(s.metrics.TotalVMs))
	}
	s.metrics.Makespan = s.lastFinish - s.firstSubmit
	return Result{Metrics: s.metrics}, s.records, nil
}

func (s *refSim) info(k model.Key) (allocInfo, error) {
	if k.IsZero() {
		return allocInfo{}, nil
	}
	if ai, ok := s.cache[k]; ok {
		return ai, nil
	}
	rec, err := s.cfg.DB.Estimate(k)
	if err != nil {
		return allocInfo{}, fmt.Errorf("cloudsim: pricing %v: %w", k, err)
	}
	var ai allocInfo
	ai.power = rec.AvgPower()
	for _, c := range workload.Classes {
		ct := rec.ClassTime(c)
		if ct <= 0 {
			return allocInfo{}, fmt.Errorf("cloudsim: record %v has no usable time for %v", k, c)
		}
		ai.rate[c] = float64(s.refT[c]) / float64(ct)
	}
	s.cache[k] = ai
	return ai, nil
}

func (s *refSim) advance(sv *refServer) error {
	dt := s.now - sv.lastUpdate
	if dt < 0 {
		return fmt.Errorf("cloudsim: time ran backwards on server %d", sv.id)
	}
	if dt > 0 && len(sv.vms) > 0 {
		ai, err := s.info(sv.alloc)
		if err != nil {
			return err
		}
		for _, vm := range sv.vms {
			vm.remaining -= ai.rate[vm.class] * float64(dt)
		}
		sv.energy += ai.power.Times(dt)
	}
	sv.lastUpdate = s.now
	return nil
}

func (s *refSim) reschedule(sv *refServer) error {
	s.events.cancel(sv.next)
	sv.next = nil
	if len(sv.vms) == 0 {
		return nil
	}
	ai, err := s.info(sv.alloc)
	if err != nil {
		return err
	}
	best := -1.0
	for _, vm := range sv.vms {
		rate := ai.rate[vm.class]
		if rate <= 0 {
			return fmt.Errorf("cloudsim: zero progress rate on server %d alloc %v", sv.id, sv.alloc)
		}
		rem := vm.remaining
		if rem < 0 {
			rem = 0
		}
		fin := rem / rate
		if best < 0 || fin < best {
			best = fin
		}
	}
	sv.next = s.events.schedule(s.now+units.Seconds(best), refCompletion{server: sv.id})
	return nil
}

func (s *refSim) complete(serverIdx int) error {
	sv := s.srv[serverIdx]
	if err := s.advance(sv); err != nil {
		return err
	}
	const eps = 1e-6
	kept := sv.vms[:0]
	for _, vm := range sv.vms {
		if vm.remaining > eps {
			kept = append(kept, vm)
			continue
		}
		sv.alloc = sv.alloc.Add(model.KeyFor(vm.class, -1))
		s.retire(sv, vm)
	}
	sv.vms = kept
	if len(sv.vms) == 0 && sv.activeFrom >= 0 {
		hosted := float64(s.now - sv.activeFrom)
		s.metrics.ActiveServerSeconds += hosted
		sv.hostedSeconds += hosted
		sv.activeFrom = -1
	}
	return s.reschedule(sv)
}

func (s *refSim) retire(sv *refServer, vm *refVM) {
	if s.now > s.lastFinish {
		s.lastFinish = s.now
	}
	response := s.now - vm.submit
	s.responseSum += float64(response)
	s.waitSum += float64(vm.placed - vm.submit)
	violated := vm.deadline > 0 && s.now > vm.deadline
	if violated {
		s.metrics.Violations++
	}
	s.records = append(s.records, VMRecord{
		JobID:      vm.jobID,
		Class:      vm.class,
		Server:     sv.id,
		Submit:     vm.submit,
		Placed:     vm.placed,
		Completion: s.now,
		Deadline:   vm.deadline,
		Violated:   violated,
	})
}

func (s *refSim) consolidate() error {
	if s.cfg.Consolidator == nil {
		return nil
	}
	allocs := make([]model.Key, len(s.srv))
	var snapshot []migrate.VM
	byUID := map[string]*refVM{}
	for i, sv := range s.srv {
		if err := s.advance(sv); err != nil {
			return err
		}
		allocs[i] = sv.alloc
		for _, vm := range sv.vms {
			budget := units.Seconds(0)
			if vm.deadline > 0 {
				budget = vm.deadline - s.now
				if budget < 0 {
					budget = 0
				}
			}
			rem := vm.remaining
			if rem < 0 {
				rem = 0
			}
			snapshot = append(snapshot, migrate.VM{
				ID:        vm.uid,
				Class:     vm.class,
				Server:    i,
				Remaining: units.Seconds(rem),
				Budget:    budget,
			})
			byUID[vm.uid] = vm
		}
	}
	if len(snapshot) == 0 {
		return nil
	}
	plan, err := s.cfg.Consolidator.Propose(allocs, snapshot)
	if err != nil {
		return fmt.Errorf("cloudsim: consolidator: %w", err)
	}
	if len(plan.Moves) == 0 {
		return nil
	}
	touched := map[int]bool{}
	for _, mv := range plan.Moves {
		vm := byUID[mv.VMID]
		if vm == nil || mv.From < 0 || mv.From >= len(s.srv) || mv.To < 0 || mv.To >= len(s.srv) || mv.From == mv.To {
			return fmt.Errorf("cloudsim: consolidator returned invalid move %+v", mv)
		}
		from, to := s.srv[mv.From], s.srv[mv.To]
		idx := -1
		for i, resident := range from.vms {
			if resident == vm {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("cloudsim: move %+v: VM not on source server", mv)
		}
		from.vms = append(from.vms[:idx], from.vms[idx+1:]...)
		from.alloc = from.alloc.Add(model.KeyFor(vm.class, -1))
		if len(to.vms) == 0 && to.activeFrom < 0 {
			to.activeFrom = s.now
		}
		vm.remaining += float64(plan.MigrationCost)
		to.vms = append(to.vms, vm)
		to.alloc = to.alloc.Add(model.KeyFor(vm.class, 1))
		touched[mv.From] = true
		touched[mv.To] = true
		s.metrics.Migrations++
	}
	s.metrics.ServersDrained += plan.ServersDrained
	for i := 0; i < len(s.srv); i++ {
		if !touched[i] {
			continue
		}
		sv := s.srv[i]
		if len(sv.vms) == 0 && sv.activeFrom >= 0 {
			hosted := float64(s.now - sv.activeFrom)
			s.metrics.ActiveServerSeconds += hosted
			sv.hostedSeconds += hosted
			sv.activeFrom = -1
		}
		if err := s.reschedule(sv); err != nil {
			return err
		}
	}
	return nil
}

// drainQueue implements the same queue semantics as the optimized
// (*sim).drainQueue: strict FCFS while the head fits, then one
// submission-order pass over the backfill window where every successful
// backfill re-checks the head.
func (s *refSim) drainQueue() error {
	for len(s.queue) > 0 {
		ok, err := s.tryPlace(s.queue[0])
		if err != nil {
			return err
		}
		if ok {
			s.queue = s.queue[1:]
			continue
		}
		headPlaced := false
		for i := 1; i < len(s.queue) && i <= s.cfg.BackfillDepth; {
			ok, err := s.tryPlace(s.queue[i])
			if err != nil {
				return err
			}
			if !ok {
				i++
				continue
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			ok, err = s.tryPlace(s.queue[0])
			if err != nil {
				return err
			}
			if ok {
				s.queue = s.queue[1:]
				headPlaced = true
				break
			}
		}
		if !headPlaced {
			return nil
		}
	}
	return nil
}

func (s *refSim) tryPlace(idx int) (bool, error) {
	req := s.reqs[idx]
	views := make([]strategy.Server, len(s.srv))
	for i, sv := range s.srv {
		views[i] = strategy.Server{ID: sv.id, Alloc: sv.alloc}
	}
	vms := make([]core.VMRequest, req.VMs)
	for i := range vms {
		vms[i] = core.VMRequest{
			ID:          fmt.Sprintf("j%d-%d", req.ID, i),
			Class:       req.Class,
			NominalTime: req.NominalTime,
			MaxTime:     req.MaxResponse,
		}
	}
	assign, ok := s.cfg.Strategy.Place(views, vms)
	if !ok {
		return false, nil
	}
	if len(assign) != len(vms) {
		return false, nil
	}
	added := map[int]int{}
	for _, a := range assign {
		if a < 0 || a >= len(s.srv) {
			return false, nil
		}
		added[a]++
	}
	for a, n := range added {
		if s.srv[a].alloc.Total()+n > s.cfg.MaxVMsPerServer {
			return false, nil
		}
	}
	targets := make([]int, 0, len(added))
	for a := 0; a < len(s.srv); a++ {
		if _, ok := added[a]; ok {
			targets = append(targets, a)
		}
	}
	for _, a := range targets {
		if err := s.advance(s.srv[a]); err != nil {
			return false, err
		}
	}
	deadline := req.Submit + req.MaxResponse
	for _, a := range assign {
		sv := s.srv[a]
		if len(sv.vms) == 0 && sv.activeFrom < 0 {
			sv.activeFrom = s.now
		}
		s.uidSeq++
		sv.vms = append(sv.vms, &refVM{
			id:        s.uidSeq,
			uid:       fmt.Sprintf("vm%d", s.uidSeq),
			jobID:     req.ID,
			class:     req.Class,
			remaining: float64(req.NominalTime),
			submit:    req.Submit,
			placed:    s.now,
			deadline:  deadline,
			nominal:   req.NominalTime,
		})
		sv.alloc = sv.alloc.Add(model.KeyFor(req.Class, 1))
	}
	for _, a := range targets {
		if err := s.reschedule(s.srv[a]); err != nil {
			return false, err
		}
	}
	active := 0
	for _, sv := range s.srv {
		if len(sv.vms) > 0 {
			active++
		}
	}
	if active > s.metrics.PeakActiveServers {
		s.metrics.PeakActiveServers = active
	}
	return true, nil
}
