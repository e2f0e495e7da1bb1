package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacevm/internal/cloudsim"
)

// writeLog marshals decisions to a JSONL file the way the recorder does.
func writeLog(t *testing.T, recs ...cloudsim.Decision) string {
	t.Helper()
	var b strings.Builder
	for _, d := range recs {
		line, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// chainLog is a two-attempt crash chain: request 0 places VM 1, a crash
// kills it into synthetic request 5, which places VM 7.
func chainLog(t *testing.T) string {
	t.Helper()
	return writeLog(t,
		cloudsim.Decision{Kind: cloudsim.DecisionAdmit, T: 10, Req: 0, Job: 3, VMs: 1, Queue: 1, From: -1, To: -1},
		cloudsim.Decision{Kind: cloudsim.DecisionReject, T: 10, Req: 0, Job: 3, Reason: cloudsim.RejectFitSummary, Count: 4, TEnd: 30, Candidates: 8, From: -1, To: -1},
		cloudsim.Decision{Kind: cloudsim.DecisionPlace, T: 40, Req: 0, Job: 3, VMs: 1, Wait: 30, Servers: []int{2}, VMIDs: []int{1}, From: -1, To: -1},
		cloudsim.Decision{Kind: cloudsim.DecisionRequeue, T: 90, Req: 5, Job: 3, VMs: 1, VMID: 1, Lost: 50, From: 2, To: -1},
		cloudsim.Decision{Kind: cloudsim.DecisionAdmit, T: 90, Req: 5, Job: 3, VMs: 1, Queue: 1, From: -1, To: -1},
		cloudsim.Decision{Kind: cloudsim.DecisionPlace, T: 95, Req: 5, Job: 3, VMs: 1, Wait: 5, Servers: []int{4}, VMIDs: []int{7}, From: -1, To: -1},
	)
}

func TestExplainChain(t *testing.T) {
	log := chainLog(t)
	for _, vm := range []int{1, 7} { // both ends resolve the same chain
		var out strings.Builder
		if err := run(options{logPath: log, vm: vm, job: -1}, &out); err != nil {
			t.Fatalf("vm %d: %v", vm, err)
		}
		got := out.String()
		for _, want := range []string{
			"[VM 1] request 0 (attempt 1)",
			"fit-summary ×4 until t=30",
			"VM 1 killed on server 2 (lost 50s) -> request 5",
			"[VM 7] request 5 (attempt 2)",
			"servers [4] vm ids [7]",
		} {
			if !strings.Contains(got, want) {
				t.Errorf("vm %d: chain missing %q:\n%s", vm, want, got)
			}
		}
	}
}

func TestExplainJobAndWindows(t *testing.T) {
	log := writeLog(t,
		cloudsim.Decision{Kind: cloudsim.DecisionRoute, T: 5, Shard: -1, Req: 0, Job: 3, Window: 1, From: -1, To: 2},
		cloudsim.Decision{Kind: cloudsim.DecisionSteal, T: 7, Shard: -1, Req: 0, Job: 3, Window: 1, From: 2, To: 0},
		cloudsim.Decision{Kind: cloudsim.DecisionRoute, T: 9, Shard: -1, Req: 1, Job: 4, Window: 2, From: -1, To: 1},
	)
	var out strings.Builder
	if err := run(options{logPath: log, vm: -1, job: 3}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "routed to shard 2") || !strings.Contains(got, "stolen from shard 2 by shard 0") {
		t.Errorf("job view missing coordinator records:\n%s", got)
	}
	out.Reset()
	if err := run(options{logPath: log, vm: -1, job: -1, windows: true}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "2 coordinator windows") ||
		!strings.Contains(got, "window 1 t=5: 1 routed (shard 2: 1), 1 steals") ||
		!strings.Contains(got, "window 2 t=9: 1 routed (shard 1: 1)") {
		t.Errorf("window summary wrong:\n%s", got)
	}
}

// TestExplainDegradeRecords replays the service's ladder records, as
// written by the four-level ladder (with its budgeted-search rung) and by
// the three-level one. Both parse; each renders as its level step and
// reason. Ladder records carry no job, so they list under job 0.
func TestExplainDegradeRecords(t *testing.T) {
	var out strings.Builder
	if err := run(options{logPath: filepath.Join("testdata", "degrade.jsonl"), vm: -1, job: 0}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"degrade level 0 -> 1: queue-wait-ewma 1.2500s; full-search -> budgeted-search\n",
		"degrade level 2 -> 3: queue-wait-ewma 2.8906s; first-fit -> shed\n",
		"degrade level 1 -> 0: queue-wait-ewma 0.0232s; budgeted-search -> full-search\n",
		"degrade level 0 -> 1: queue-wait-ewma 1.2500s; full-search -> first-fit\n",
		"degrade level 1 -> 2: queue-wait-ewma 2.1875s; first-fit -> shed\n",
		"degrade level 1 -> 0: queue-wait-ewma 0.0976s; first-fit -> full-search\n",
		"10 decisions",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("degrade view missing %q:\n%s", want, got)
		}
	}
}

func TestExplainMissingLog(t *testing.T) {
	err := run(options{logPath: filepath.Join(t.TempDir(), "nope.jsonl"), vm: 1, job: -1}, &strings.Builder{})
	if err == nil || !os.IsNotExist(err) {
		t.Fatalf("missing log error = %v", err)
	}
}

// A record cut mid-write (crash during -decision-log) must be reported
// with its line number, matching the model-CSV loader convention.
func TestExplainTruncatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.jsonl")
	content := `{"kind":"admit","t":1,"shard":0,"req":0,"job":1,"vms":1,"from":-1,"to":-1}` + "\n" +
		`{"kind":"place","t":2,"sha`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{logPath: path, vm: 1, job: -1}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "decision log line 2") {
		t.Fatalf("truncated record error = %v, want line 2", err)
	}
}

func TestExplainUnknownVM(t *testing.T) {
	err := run(options{logPath: chainLog(t), vm: 999, job: -1}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "vm 999 not in the decision log") {
		t.Fatalf("unknown vm error = %v", err)
	}
	err = run(options{logPath: chainLog(t), vm: -1, job: 999}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "job 999 not in the decision log") {
		t.Fatalf("unknown job error = %v", err)
	}
}

func TestExplainModeValidation(t *testing.T) {
	if err := run(options{vm: 1, job: -1}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "-log is required") {
		t.Errorf("missing -log error = %v", err)
	}
	log := chainLog(t)
	if err := run(options{logPath: log, vm: 1, job: 2}, &strings.Builder{}); err == nil {
		t.Error("two modes accepted")
	}
	if err := run(options{logPath: log, vm: -1, job: -1}, &strings.Builder{}); err == nil {
		t.Error("no mode accepted")
	}
}
