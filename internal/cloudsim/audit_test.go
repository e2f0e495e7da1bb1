package cloudsim

// Guards for the VM lifecycle audit: span chains under faults reconcile
// exactly with Metrics, the audit never perturbs the simulation, and
// the CSV export is parseable and deterministic.

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"pacevm/internal/faults"
	"pacevm/internal/obs"
	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// TestAuditFaultChain drives the single-server crash fixture of
// TestCrashKillsRequeuesAndRecovers with the audit attached: the
// crash→requeue→finish chain must read as attempt 1 (killed, requeued)
// followed by attempt 2 (finished), with wait/service/stretch summing
// consistently and the original submit inherited across the chain.
func TestAuditFaultChain(t *testing.T) {
	db := sharedDB(t)
	class := workload.ClassCPU
	nominal := db.Aux().RefTime[class]
	reqs := []trace.Request{{ID: 1, Submit: 10, Class: class, VMs: 1, NominalTime: nominal, MaxResponse: nominal * 100}}
	down := 10 + units.Seconds(float64(nominal)*0.5)
	audit := NewVMAudit()
	res, err := Run(Config{
		DB: db, Servers: 1, Strategy: ff(t, 1),
		Faults: faults.Schedule{{Server: 0, Down: down, Up: down + 500}},
		Audit:  audit,
	}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	spans := audit.Spans()
	if len(spans) != 2 {
		t.Fatalf("chain produced %d spans, want 2 (killed + finished):\n%+v", len(spans), spans)
	}
	k, f := spans[0], spans[1]
	if k.Outcome != AuditKilled || !k.Requeued || k.Attempt != 1 {
		t.Errorf("first span not a requeued kill of attempt 1: %+v", k)
	}
	if f.Outcome != AuditFinished || f.Requeued || f.Attempt != 2 {
		t.Errorf("second span not a finish of attempt 2: %+v", f)
	}
	if k.JobID != f.JobID || k.Submit != 10 || f.Submit != 10 {
		t.Errorf("chain lost the original job/submit: kill %+v finish %+v", k, f)
	}
	if k.End != down {
		t.Errorf("kill ended at %v, want the crash instant %v", k.End, down)
	}
	if k.WorkLost != res.WorkLost {
		t.Errorf("killed span lost %v, Metrics.WorkLost = %v", k.WorkLost, res.WorkLost)
	}
	for _, sp := range spans {
		if got := sp.Placed - sp.Submit; got != sp.Wait {
			t.Errorf("span wait %v != placed-submit %v", sp.Wait, got)
		}
		if got := sp.End - sp.Placed; got != sp.Service {
			t.Errorf("span service %v != end-placed %v", sp.Service, got)
		}
	}
	// The redo waited out the outage under the original submit, so its
	// wait dominates the chain and its stretch exceeds the kill's.
	if f.Wait <= k.Wait || f.Stretch <= k.Stretch {
		t.Errorf("redo wait/stretch (%v/%v) not above attempt 1's (%v/%v)",
			f.Wait, f.Stretch, k.Wait, k.Stretch)
	}
	if f.DeadlineMiss {
		// The fixture's deadline is far beyond the outage; it must be met.
		t.Errorf("deadline miss despite the slack bound: %+v", f)
	}
	if k.MissAttribution != MissNone || f.MissAttribution != MissNone {
		t.Errorf("attribution moved on a met deadline: kill %q finish %q",
			k.MissAttribution, f.MissAttribution)
	}
}

// TestAuditReconcilesWithMetrics runs a dense faulted workload and
// requires the span population to reconcile exactly with Metrics:
// finished == TotalVMs, killed == VMsKilled, requeued == Requeues,
// Σ WorkLost == Metrics.WorkLost, misses == Violations — and the audit
// itself must not perturb the run: Metrics and the decision log's place
// records (each VM's placement instant, server and uid) stay identical.
func TestAuditReconcilesWithMetrics(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 21, 150)
	sched := faultSchedule(t, 5, 10, 40000)
	mk := func(a *VMAudit, rec *DecisionRecorder) Config {
		return Config{
			DB: db, Servers: 10, Strategy: ff(t, 2),
			Faults: sched, Checkpoint: faults.Periodic{Interval: 300},
			Audit: a, Recorder: rec,
		}
	}
	plainRec, auditedRec := NewDecisionRecorder(), NewDecisionRecorder()
	plain, err := Run(mk(nil, plainRec), reqs)
	if err != nil {
		t.Fatal(err)
	}
	audit := NewVMAudit()
	res, err := Run(mk(audit, auditedRec), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics != res.Metrics {
		t.Errorf("audit perturbed Metrics:\nplain   %+v\naudited %+v", plain.Metrics, res.Metrics)
	}
	if !reflect.DeepEqual(placeRecords(plainRec), placeRecords(auditedRec)) {
		t.Error("audit perturbed the placement records")
	}
	if res.VMsKilled == 0 {
		t.Fatal("schedule did not bite; reconciliation vacuous")
	}
	var finished, killed, requeued, misses, faultMiss, capMiss int
	var lost units.Seconds
	maxAttempt := 0
	for _, sp := range audit.Spans() {
		switch sp.Outcome {
		case AuditFinished:
			finished++
			if sp.DeadlineMiss {
				misses++
				switch sp.MissAttribution {
				case MissFault:
					faultMiss++
				case MissCapacity:
					capMiss++
				default:
					t.Errorf("missed deadline with attribution %q", sp.MissAttribution)
				}
			} else if sp.MissAttribution != MissNone {
				t.Errorf("met deadline attributed %q", sp.MissAttribution)
			}
		case AuditKilled:
			killed++
			lost += sp.WorkLost
			if !sp.Requeued {
				t.Errorf("killed span not marked requeued: %+v", sp)
			}
		default:
			t.Errorf("unknown outcome %q", sp.Outcome)
		}
		if sp.Attempt > maxAttempt {
			maxAttempt = sp.Attempt
		}
	}
	if finished != res.TotalVMs {
		t.Errorf("finished spans = %d, TotalVMs = %d", finished, res.TotalVMs)
	}
	if killed != res.VMsKilled {
		t.Errorf("killed spans = %d, VMsKilled = %d", killed, res.VMsKilled)
	}
	requeued = killed
	if requeued != res.Requeues {
		t.Errorf("requeued spans = %d, Requeues = %d", requeued, res.Requeues)
	}
	if diff := float64(lost - res.WorkLost); diff < -1e-6 || diff > 1e-6 {
		t.Errorf("Σ span WorkLost = %v, Metrics.WorkLost = %v", lost, res.WorkLost)
	}
	if misses != res.Violations {
		t.Errorf("deadline-miss spans = %d, Violations = %d", misses, res.Violations)
	}
	if maxAttempt < 2 {
		t.Error("no multi-attempt chain observed; attempt numbering untested")
	}
	t.Logf("audit: %d finished, %d killed, misses %d (fault %d / capacity %d), deepest chain %d",
		finished, killed, misses, faultMiss, capMiss, maxAttempt)
}

// TestAuditCSV pins the export: header plus one parseable row per span,
// byte-identical across runs of the same configuration.
func TestAuditCSV(t *testing.T) {
	db := sharedDB(t)
	reqs := faultWorkload(t, 21, 120)
	sched := faultSchedule(t, 5, 8, 40000)
	export := func() []byte {
		audit := NewVMAudit()
		if _, err := Run(Config{
			DB: db, Servers: 8, Strategy: ff(t, 2),
			Faults: sched, Audit: audit,
		}, reqs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := audit.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if audit.Len() == 0 {
			t.Fatal("audit recorded nothing")
		}
		rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("audit CSV does not parse: %v", err)
		}
		if got := strings.Join(rows[0], ","); got != auditCSVHeader {
			t.Errorf("header = %q, want %q", got, auditCSVHeader)
		}
		if len(rows)-1 != audit.Len() {
			t.Errorf("%d data rows for %d spans", len(rows)-1, audit.Len())
		}
		return buf.Bytes()
	}
	if !bytes.Equal(export(), export()) {
		t.Error("audit CSV not deterministic across identical runs")
	}
}

// TestAuditNilSafe pins the degenerate accessors and that reuse across
// runs resets cleanly.
func TestAuditNilSafe(t *testing.T) {
	var a *VMAudit
	if a.Len() != 0 || a.Spans() != nil {
		t.Error("nil audit accessors not inert")
	}
	db := sharedDB(t)
	reqs := mkReqs(t, 3, workload.ClassCPU, 50)
	audit := NewVMAudit()
	for rep := 0; rep < 2; rep++ {
		if _, err := Run(Config{DB: db, Servers: 2, Strategy: ff(t, 2), Audit: audit}, reqs); err != nil {
			t.Fatal(err)
		}
		if audit.Len() != 3 {
			t.Fatalf("rep %d: %d spans, want 3 (reuse must reset)", rep, audit.Len())
		}
	}
}

// TestAuditQuantiles checks the registry digests fed at retire: the
// wait digest counts every retirement and its quantiles order sanely.
func TestAuditQuantiles(t *testing.T) {
	db := sharedDB(t)
	reqs := goldenWorkload(t, 33, 200)
	reg := obs.NewRegistry()
	res, err := Run(Config{DB: db, Servers: 8, Strategy: ff(t, 2), Obs: reg}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wq, ok := snap.Quantiles["sim_vm_wait_seconds"]
	if !ok {
		t.Fatal("sim_vm_wait_seconds digest missing from snapshot")
	}
	if wq.Count != int64(res.TotalVMs) {
		t.Errorf("wait digest count = %d, want TotalVMs = %d", wq.Count, res.TotalVMs)
	}
	if wq.Min < 0 || wq.P50 > wq.P99 || wq.P99 > wq.Max {
		t.Errorf("wait digest out of order: %+v", wq)
	}
	sq, ok := snap.Quantiles["sim_vm_stretch"]
	if !ok {
		t.Fatal("sim_vm_stretch digest missing from snapshot")
	}
	if sq.Count != int64(res.TotalVMs) || sq.Min < 1 {
		// Stretch is response over nominal solo time; it cannot beat 1 on
		// this homogeneous hardware.
		t.Errorf("stretch digest implausible: %+v", sq)
	}
}
