package main

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/faults"
	"pacevm/internal/model"
	"pacevm/internal/obs"
)

var (
	dbOnce sync.Once
	testDB *model.DB
	dbErr  error
)

func sharedDB(t *testing.T) *model.DB {
	t.Helper()
	dbOnce.Do(func() {
		cfg := campaign.DefaultConfig()
		cfg.FullGridTotal = 8
		testDB, _, dbErr = campaign.Run(cfg)
	})
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return testDB
}

func TestParseStrategy(t *testing.T) {
	db := sharedDB(t)
	cases := []struct {
		in   string
		want string
	}{
		{"FF", "FF"},
		{"ff-2", "FF-2"},
		{"FF-3", "FF-3"},
		{"PA-1", "PA-1"},
		{"pa-0", "PA-0"},
		{"PA-0.5", "PA-0.5"},
		{"PA-0.75", "PA-0.75"},
		{"BF-2", "BF-2"},
	}
	for _, c := range cases {
		st, err := parseStrategy(db, c.in, 0, nil)
		if err != nil {
			t.Errorf("parseStrategy(%q): %v", c.in, err)
			continue
		}
		if st.Name() != c.want {
			t.Errorf("parseStrategy(%q).Name() = %q, want %q", c.in, st.Name(), c.want)
		}
	}
}

func TestParseStrategyErrors(t *testing.T) {
	db := sharedDB(t)
	for _, in := range []string{"", "XX", "PA-", "PA-x", "BF-", "BF-x", "PA-2"} {
		if _, err := parseStrategy(db, in, 0, nil); err == nil {
			t.Errorf("parseStrategy(%q) accepted bad input", in)
		}
	}
}

// TestParseCheckpoint pins the values the -checkpoint flag accepts and
// rejects; run hands the flag to faults.ParsePolicy unchanged.
func TestParseCheckpoint(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", "restart"},
		{"restart", "restart"},
		{"periodic:300", "periodic:300"},
		{"periodic:0.5", "periodic:0.5"},
	} {
		cp, err := faults.ParsePolicy(c.in)
		if err != nil {
			t.Errorf("-checkpoint %q: %v", c.in, err)
			continue
		}
		if cp.Name() != c.want {
			t.Errorf("-checkpoint %q: Name() = %q, want %q", c.in, cp.Name(), c.want)
		}
	}
	for _, in := range []string{"never", "periodic:", "periodic:x", "periodic:-5", "periodic:0", "periodic:Inf", "periodic:NaN"} {
		if _, err := faults.ParsePolicy(in); err == nil {
			t.Errorf("-checkpoint %q accepted bad input", in)
		}
	}
}

func TestLoadModelFromDir(t *testing.T) {
	db := sharedDB(t)
	dir := t.TempDir()
	mf, err := os.Create(filepath.Join(dir, "model.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteCSV(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	af, err := os.Create(filepath.Join(dir, "aux.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteAuxCSV(af); err != nil {
		t.Fatal(err)
	}
	af.Close()

	got, err := loadModel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Errorf("loaded %d records, want %d", got.Len(), db.Len())
	}
}

func TestLoadModelMissingDir(t *testing.T) {
	if _, err := loadModel(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing model directory should fail")
	}
}

// modelDir writes the shared test model as CSV into a temp dir so run()
// can load it without an in-process campaign per case.
func modelDir(t *testing.T) string {
	t.Helper()
	db := sharedDB(t)
	dir := t.TempDir()
	mf, err := os.Create(filepath.Join(dir, "model.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteCSV(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	af, err := os.Create(filepath.Join(dir, "aux.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteAuxCSV(af); err != nil {
		t.Fatal(err)
	}
	af.Close()
	return dir
}

// TestRunErrorPaths drives run() through each failure mode a user can
// hit from the command line; every one must surface as an error (main
// then prints it to stderr and exits non-zero).
func TestRunErrorPaths(t *testing.T) {
	dir := modelDir(t)
	base := options{stratName: "FF-3", servers: 4, seed: 1, vms: 50, modelDir: dir}
	cases := []struct {
		name string
		mut  func(*options)
		want string // a substring the error must carry, when set
	}{
		{"unknown strategy", func(o *options) { o.stratName = "XX-9" }, ""},
		{"missing model dir", func(o *options) { o.modelDir = filepath.Join(dir, "nope") }, ""},
		{"missing swf input", func(o *options) { o.swfPath = filepath.Join(dir, "missing.swf") }, ""},
		{"unwritable trace output", func(o *options) { o.tracePath = filepath.Join(dir, "no", "such", "dir", "t.json") }, ""},
		{"bad debug address", func(o *options) { o.debugAddr = "notanaddress:-1" }, ""},
		{"missing fault schedule", func(o *options) { o.faultsPath = filepath.Join(dir, "missing.csv") }, ""},
		{"mtbf without mttr", func(o *options) { o.mtbf = 5000 }, ""},
		{"bad checkpoint policy", func(o *options) { o.checkpoint = "sometimes" }, ""},
		{"non-finite checkpoint interval", func(o *options) { o.checkpoint = "periodic:NaN" }, ""},
		{"unwritable vm-audit output", func(o *options) { o.vmAuditPath = filepath.Join(dir, "no", "such", "dir", "a.csv") }, ""},
		{"unwritable series output", func(o *options) { o.seriesPath = filepath.Join(dir, "no", "such", "dir", "s.csv") }, ""},
		{"negative vms", func(o *options) { o.vms = -100 }, ""},
		{"negative series cap", func(o *options) { o.seriesPath = filepath.Join(dir, "s.csv"); o.seriesCap = -1 }, ""},
		{"negative shards", func(o *options) { o.shards = -1 }, ""},
		{"negative shard window", func(o *options) { o.shards = 2; o.shardWindow = -10 }, ""},
		{"explicit zero shard window", func(o *options) { o.shards = 2; o.shardWindow = 0; o.windowSet = true }, ""},
		{"explicit negative shard window", func(o *options) { o.shards = 2; o.shardWindow = -1; o.windowSet = true }, ""},
		{"negative watchdog period", func(o *options) { o.watchdogEvery = -1 }, ""},
		{"more shards than servers", func(o *options) { o.shards = 8 }, ""},
		{"steal without shards", func(o *options) { o.steal = true }, ""},
		{"unwritable decision log output", func(o *options) { o.decisionLog = filepath.Join(dir, "no", "such", "dir", "d.jsonl") }, ""},
		{"negative search budget", func(o *options) { o.stratName = "PA-0.5"; o.searchBudget = -1 }, ""},
		{"search budget without PA", func(o *options) { o.searchBudget = 3 }, ""},
		{"BF multiplex zero", func(o *options) { o.stratName = "BF-0" }, "multiplex 0"},
		{"BF cap past the admission limit", func(o *options) { o.stratName = "BF-5" }, "admission limit"},
		{"negative backfill depth", func(o *options) { o.backfill = -1 }, "BackfillDepth"},
		{"BF multiplex with trailing text", func(o *options) { o.stratName = "BF-2x" }, "bad BF multiplex"},
		{"PA alpha with trailing text", func(o *options) { o.stratName = "PA-0.5abc" }, "bad PA alpha"},
		{"PA alpha NaN", func(o *options) { o.stratName = "PA-NaN" }, "out of [0,1]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := base
			c.mut(&opt)
			err := run(opt)
			if err == nil {
				t.Error("run() accepted a broken configuration")
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("run() error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestRunVMsWithSWF replays a small SWF file: -vms 0 replays the whole
// trace, and a negative -vms is refused rather than read as "whole
// trace".
func TestRunVMsWithSWF(t *testing.T) {
	dir := modelDir(t)
	swfPath := filepath.Join(t.TempDir(), "small.swf")
	jobs := "1 0 0 600 2 -1 -1 2 1200 -1 1 3 1 7 1 1 -1 -1\n" +
		"2 30 0 450 1 -1 -1 1 900 -1 1 4 1 7 1 1 -1 -1\n" +
		"3 60 0 300 4 -1 -1 4 600 -1 1 2 1 8 1 1 -1 -1\n"
	if err := os.WriteFile(swfPath, []byte(jobs), 0o644); err != nil {
		t.Fatal(err)
	}
	opt := options{stratName: "FF-3", servers: 4, seed: 1, vms: 0, swfPath: swfPath, modelDir: dir}
	if err := run(opt); err != nil {
		t.Fatalf("-vms 0 with -swf: %v", err)
	}
	opt.vms = -1
	if err := run(opt); err == nil {
		t.Error("-vms -1 with -swf was accepted")
	}
}

// TestRunWritesTraceAndManifest is the CLI acceptance path: a traced run
// must leave a schema-valid Chrome trace file and a manifest carrying
// the metrics and the telemetry snapshot.
func TestRunWritesTraceAndManifest(t *testing.T) {
	dir := modelDir(t)
	tracePath := filepath.Join(t.TempDir(), "out.json")
	opt := options{stratName: "FF-3", servers: 4, seed: 1, vms: 60, modelDir: dir, tracePath: tracePath, backfill: 2}
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	f, err := obs.ReadTraceFile(tf)
	if err != nil {
		t.Fatalf("trace output is not valid Chrome trace JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	if f.OtherData["tool"] != "pacevm-sim" {
		t.Errorf("otherData = %v", f.OtherData)
	}
	raw, err := os.ReadFile(tracePath + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command   string `json:"command"`
		Seed      uint64 `json:"seed"`
		Telemetry struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Command != "pacevm-sim" || m.Seed != 1 {
		t.Errorf("manifest header = %+v", m)
	}
	if m.Telemetry.Counters["sim_events_popped"] == 0 {
		t.Error("manifest telemetry snapshot is empty")
	}
}

// TestRunAuditSeries is the audit smoke (make audit-smoke): a small
// faulted run with -vm-audit, -series and -trace enabled must leave
// parseable, non-empty CSVs, a trace, and a manifest whose artifacts
// map points at all of them.
func TestRunAuditSeries(t *testing.T) {
	dir := modelDir(t)
	out := t.TempDir()
	opt := options{
		stratName: "FF-3", servers: 4, seed: 1, vms: 60, modelDir: dir,
		mtbf: 2000, mttr: 200, checkpoint: "periodic:300",
		vmAuditPath: filepath.Join(out, "audit.csv"),
		seriesPath:  filepath.Join(out, "series.csv"),
		tracePath:   filepath.Join(out, "trace.json"),
	}
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	readCSV := func(path, wantFirstCol string) [][]string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rows, err := csv.NewReader(f).ReadAll()
		if err != nil {
			t.Fatalf("%s does not parse as CSV: %v", path, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s has no data rows", path)
		}
		if rows[0][0] != wantFirstCol {
			t.Fatalf("%s header starts with %q, want %q", path, rows[0][0], wantFirstCol)
		}
		return rows
	}
	audit := readCSV(opt.vmAuditPath, "vm")
	finished := 0
	for _, row := range audit[1:] {
		if row[11] == "finished" {
			finished++
		}
	}
	if finished == 0 {
		t.Error("audit CSV records no finished spans")
	}
	readCSV(opt.seriesPath, "t_s")

	raw, err := os.ReadFile(opt.tracePath + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		SchemaVersion int               `json:"schema_version"`
		Artifacts     map[string]string `json:"artifacts"`
		Telemetry     struct {
			Quantiles map[string]struct {
				Count int64 `json:"count"`
			} `json:"quantiles"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.SchemaVersion != obs.ManifestSchemaVersion {
		t.Errorf("manifest schema_version = %d, want %d", m.SchemaVersion, obs.ManifestSchemaVersion)
	}
	for _, key := range []string{"trace", "vm_audit", "series"} {
		if m.Artifacts[key] == "" {
			t.Errorf("manifest artifacts missing %q: %v", key, m.Artifacts)
		}
	}
	if m.Telemetry.Quantiles["sim_vm_wait_seconds"].Count == 0 {
		t.Error("manifest telemetry carries no wait-quantile observations")
	}
}

// TestRunDashboardLive starts run() with a debug server and no series
// file: the dashboard must answer 200 during/after the run with the
// live quantile digests rendered.
func TestRunDashboardLive(t *testing.T) {
	// run() closes its own debug server on return, so serve one here the
	// same way run does and probe it — the handler path is identical.
	reg := obs.NewRegistry()
	reg.Quantile("sim_vm_wait_seconds").Observe(3)
	ds, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	resp, err := http.Get("http://" + ds.Addr() + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/dash status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "sim_vm_wait_seconds") {
		t.Error("/debug/dash does not render the quantile digest")
	}
}

// TestRunSharded drives the parallel engine through the CLI path: a
// sharded faulted run with audit and series export must succeed and
// leave parseable merged artifacts. Byte-level shard semantics are
// pinned by the cloudsim tests; this is the wiring smoke.
func TestRunSharded(t *testing.T) {
	dir := modelDir(t)
	out := t.TempDir()
	opt := options{
		stratName: "FF-3", servers: 4, seed: 1, vms: 60, modelDir: dir,
		shards: 2, mtbf: 2000, mttr: 200,
		vmAuditPath: filepath.Join(out, "audit.csv"),
		seriesPath:  filepath.Join(out, "series.csv"),
	}
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{opt.vmAuditPath, opt.seriesPath} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s does not parse as CSV: %v", path, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s has no data rows", path)
		}
	}
	// An explicit window must also run (and stay deterministic enough to
	// finish; result equality across runs is pinned in cloudsim).
	opt.shardWindow = 500
	opt.vmAuditPath, opt.seriesPath = "", ""
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
}

// TestRunDecisionLogAndWatchdog is the flight-recorder wiring smoke: a
// sharded, faulted, traced run with the recorder and watchdog on must
// succeed (zero invariant violations), write a replayable decision log,
// and register the artifact in the trace manifest. Decision semantics
// are pinned by the cloudsim tests.
func TestRunDecisionLogAndWatchdog(t *testing.T) {
	dir := modelDir(t)
	out := t.TempDir()
	opt := options{
		stratName: "FF-3", servers: 4, seed: 1, vms: 60, modelDir: dir,
		shards: 2, mtbf: 2000, mttr: 200,
		decisionLog:   filepath.Join(out, "decisions.jsonl"),
		watchdogEvery: 64,
		tracePath:     filepath.Join(out, "t.json"),
	}
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(opt.decisionLog)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := cloudsim.ReadDecisionLog(f)
	f.Close()
	if err != nil {
		t.Fatalf("decision log does not replay: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("decision log is empty")
	}
	man, err := os.ReadFile(opt.tracePath + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(man), "decision_log") {
		t.Error("manifest does not name the decision log artifact")
	}
}

// TestRunFaultModes drives run() end to end with fault injection on:
// seeded MTBF/MTTR generation, a stored schedule file, and a budgeted
// PA search with checkpointing. Output formatting is exercised; the
// metrics themselves are pinned by the cloudsim tests.
func TestRunFaultModes(t *testing.T) {
	dir := modelDir(t)
	base := options{stratName: "FF-3", servers: 4, seed: 1, vms: 50, modelDir: dir}

	t.Run("generated schedule", func(t *testing.T) {
		opt := base
		opt.mtbf, opt.mttr = 2000, 200
		if err := run(opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("schedule file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "outages.csv")
		if err := os.WriteFile(path, []byte("server,down_s,up_s\n1,100,400\n2,500,900\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		opt := base
		opt.faultsPath = path
		opt.checkpoint = "periodic:300"
		if err := run(opt); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("budgeted PA search", func(t *testing.T) {
		opt := base
		opt.stratName = "PA-0.5"
		opt.vms = 30
		opt.mtbf, opt.mttr = 2000, 200
		opt.searchBudget = 2
		if err := run(opt); err != nil {
			t.Fatal(err)
		}
	})
}
