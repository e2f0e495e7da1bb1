package cloudsim

// Flight-recorder acceptance: (1) an attached recorder never perturbs
// the simulation (Metrics and audited per-VM records identical to a
// recorder-off run); (2) a one-shard sharded run records the same log as the
// monolithic loop; (3) on a faulted, sharded, steal-enabled run every
// placed VM has a reconstructible decision chain; (4) reject folding,
// the JSONL round-trip and the line-numbered reader errors.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pacevm/internal/core"
	"pacevm/internal/obs"
)

// placeRecords filters a decision log down to its place records.
func placeRecords(r *DecisionRecorder) []Decision {
	var out []Decision
	for _, d := range r.Decisions() {
		if d.Kind == DecisionPlace {
			out = append(out, d)
		}
	}
	return out
}

func TestDecisionRecorderDoesNotPerturb(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	plain, plainVMs := runRecords(t, Run, cfg, reqs)
	cfg.Obs = obs.NewRegistry()
	cfg.Recorder = NewDecisionRecorder()
	recorded, recordedVMs := runRecords(t, Run, cfg, reqs)
	if plain.Metrics != recorded.Metrics {
		t.Errorf("recorder perturbed Metrics:\noff %+v\non  %+v", plain.Metrics, recorded.Metrics)
	}
	if !reflect.DeepEqual(plainVMs, recordedVMs) {
		t.Error("recorder perturbed VMRecords")
	}
	if cfg.Recorder.Len() == 0 {
		t.Fatal("recorder captured nothing on a stress run")
	}
	snap := cfg.Obs.Snapshot()
	if snap.Counters["sim_decision_places_total"] == 0 || snap.Counters["sim_decision_admits_total"] == 0 {
		t.Errorf("decision counters did not move: %+v", snap.Counters)
	}
}

// The decision counters are registered only when a recorder is attached,
// so recorder-off registry snapshots stay exactly as they were.
func TestDecisionCountersConditional(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Obs = obs.NewRegistry()
	if _, err := Run(cfg, reqs); err != nil {
		t.Fatal(err)
	}
	for name := range cfg.Obs.Snapshot().Counters {
		if strings.HasPrefix(name, "sim_decision_") {
			t.Errorf("recorder-off run registered %s", name)
		}
	}
}

// A one-shard sharded run must hand the user's recorder straight to the
// inner loop: the log it captures is identical to Run's.
func TestDecisionShardedOneShardIdentity(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Obs = obs.NewRegistry()
	cfg.Recorder = NewDecisionRecorder()
	if _, err := Run(cfg, reqs); err != nil {
		t.Fatal(err)
	}
	mono := cfg.Recorder.Decisions()

	cfg.Obs = obs.NewRegistry()
	cfg.Recorder = NewDecisionRecorder()
	if _, err := RunSharded(cfg, reqs, ShardConfig{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	if sharded := cfg.Recorder.Decisions(); !reflect.DeepEqual(mono, sharded) {
		t.Fatalf("one-shard log diverges from monolithic: %d vs %d records", len(mono), len(sharded))
	}
}

// On a faulted, sharded, steal-enabled run every VM the audit saw must
// resolve to a place record in the merged log, every requeue must link a
// previously placed VM to its synthetic request, and the coordinator's
// route records must cover every original request exactly once.
func TestDecisionChainReconstructible(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Obs = obs.NewRegistry()
	cfg.Recorder = NewDecisionRecorder()
	cfg.Audit = NewVMAudit()
	res, err := RunSharded(cfg, reqs, ShardConfig{Shards: 4, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.VMsKilled == 0 {
		t.Fatal("stress config injected no kills; chain reconstruction undertested")
	}
	recs := cfg.Recorder.Decisions()

	placedVMs := map[int]bool{}
	routedReqs := map[int]int{}
	requeueOf := map[int]int{} // synthetic req -> killed VM uid
	for _, d := range recs {
		switch d.Kind {
		case DecisionPlace:
			for i, uid := range d.VMIDs {
				if placedVMs[uid] {
					t.Fatalf("vm %d placed twice", uid)
				}
				placedVMs[uid] = true
				if sv := d.Servers[i]; sv < 0 || sv >= cfg.Servers {
					t.Fatalf("vm %d placed on server %d outside the global fleet", uid, sv)
				}
			}
		case DecisionRoute:
			routedReqs[d.Req]++
			if d.Shard != -1 || d.Window <= 0 {
				t.Fatalf("route record not from the coordinator: %+v", d)
			}
		case DecisionRequeue:
			requeueOf[d.Req] = d.VMID
			if d.Req < len(reqs) {
				t.Fatalf("requeue created non-synthetic request %d", d.Req)
			}
		}
	}
	for _, sp := range cfg.Audit.Spans() {
		if !placedVMs[sp.VMID] {
			t.Fatalf("audited vm %d has no place record in the merged log", sp.VMID)
		}
	}
	for req, uid := range requeueOf {
		if !placedVMs[uid] {
			t.Fatalf("requeue of request %d names vm %d which was never placed", req, uid)
		}
	}
	for i := range reqs {
		if routedReqs[i] != 1 {
			t.Fatalf("request %d routed %d times, want exactly once", i, routedReqs[i])
		}
	}
	snap := cfg.Obs.Snapshot()
	if snap.Counters["sim_decision_routes_total"] != int64(len(reqs)) {
		t.Errorf("sim_decision_routes_total = %d, want %d", snap.Counters["sim_decision_routes_total"], len(reqs))
	}
}

// Consecutive same-reason rejects of one request fold into a single
// record carrying the count and the fold's end time; any other decision
// about the request closes the fold.
func TestDecisionRejectFolding(t *testing.T) {
	r := NewDecisionRecorder()
	for i := 0; i < 5; i++ {
		r.record(Decision{Kind: DecisionReject, T: float64(10 + i), Req: 7, Reason: RejectFitSummary, From: -1, To: -1})
	}
	r.record(Decision{Kind: DecisionReject, T: 20, Req: 7, Reason: RejectQoSWait, From: -1, To: -1})
	r.record(Decision{Kind: DecisionPlace, T: 30, Req: 7, From: -1, To: -1})
	r.record(Decision{Kind: DecisionReject, T: 40, Req: 7, Reason: RejectQoSWait, From: -1, To: -1})

	recs := r.Decisions()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4 (folded run, reason change, place, reopened)", len(recs))
	}
	if recs[0].Count != 5 || recs[0].TEnd != 14 || recs[0].T != 10 {
		t.Errorf("fold = count %d over [%g, %g], want 5 over [10, 14]", recs[0].Count, recs[0].T, recs[0].TEnd)
	}
	if recs[1].Reason != RejectQoSWait || recs[1].Count != 0 {
		t.Errorf("reason change did not open a fresh record: %+v", recs[1])
	}
	if recs[3].Count != 0 || recs[3].T != 40 {
		t.Errorf("place did not close the fold: %+v", recs[3])
	}

	// Interleaved requests fold independently.
	r.reset()
	r.record(Decision{Kind: DecisionReject, T: 1, Req: 1, Reason: RejectFitSummary, From: -1, To: -1})
	r.record(Decision{Kind: DecisionReject, T: 2, Req: 2, Reason: RejectFitSummary, From: -1, To: -1})
	r.record(Decision{Kind: DecisionReject, T: 3, Req: 1, Reason: RejectFitSummary, From: -1, To: -1})
	recs = r.Decisions()
	if len(recs) != 2 || recs[0].Count != 2 || recs[1].Count != 0 {
		t.Errorf("interleaved folding wrong: %+v", recs)
	}
}

func TestDecisionLogRoundTrip(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Recorder = NewDecisionRecorder()
	if _, err := Run(cfg, reqs); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Recorder.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDecisionLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := cfg.Recorder.Decisions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip diverges: %d vs %d records", len(got), len(want))
	}
}

func TestReadDecisionLogErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantErr string
	}{
		{"truncated", `{"kind":"admit","t":1,"req":0,"from":-1,"to":-1}` + "\n" + `{"kind":"pl`, "decision log line 2"},
		{"empty kind", `{"t":1,"req":0,"from":-1,"to":-1}`, "decision log line 1"},
		{"garbage", "not json at all", "decision log line 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDecisionLog(strings.NewReader(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want %q", err, tc.wantErr)
			}
		})
	}
	// Blank lines are tolerated (a crash mid-run may leave one).
	recs, err := ReadDecisionLog(strings.NewReader(`{"kind":"admit","t":1,"req":0,"from":-1,"to":-1}` + "\n\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("blank trailing line: %d records, %v", len(recs), err)
	}
}

// With a PROACTIVE strategy the recorder threads the exact search
// statistics of each placement through strategy.Explainer, and the
// explained path must not change any placement decision.
func TestDecisionSearchStats(t *testing.T) {
	cfg, reqs := shardedStressConfig(t)
	cfg.Strategy = pa(t, core.GoalBalanced)
	plain, plainVMs := runRecords(t, Run, cfg, reqs)
	cfg.Recorder = NewDecisionRecorder()
	recorded, recordedVMs := runRecords(t, Run, cfg, reqs)
	if plain.Metrics != recorded.Metrics || !reflect.DeepEqual(plainVMs, recordedVMs) {
		t.Fatal("explained placement path diverged from the plain one")
	}
	withStats := 0
	for _, d := range cfg.Recorder.Decisions() {
		if d.Kind == DecisionPlace && d.Search != nil {
			withStats++
			if d.Search.Enumerated <= 0 {
				t.Fatalf("place record carries empty search stats: %+v", d.Search)
			}
		}
	}
	if withStats == 0 {
		t.Fatal("no place record carried search statistics under a PROACTIVE strategy")
	}
}
