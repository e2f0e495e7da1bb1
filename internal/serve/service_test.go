package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/model"
	"pacevm/internal/obs"
	"pacevm/internal/trace"
)

var (
	dbOnce sync.Once
	testDB *model.DB
	dbErr  error
)

func sharedDB(t testing.TB) *model.DB {
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

func testConfig(t *testing.T, servers, shards int) Config {
	t.Helper()
	return Config{
		DB:              sharedDB(t),
		Servers:         servers,
		Shards:          shards,
		MaxVMsPerServer: 4,
		// Long enough that unit tests never trip the ladder or deadline
		// by accident.
		RequestTimeout: 10 * time.Second,
		Watermarks:     [2]time.Duration{2 * time.Second, 4 * time.Second},
		WatchdogEvery:  -1,
	}
}

func mustPlace(t *testing.T, s *Service, key string, vms int) *PlaceResponse {
	t.Helper()
	out := s.Place("test", PlaceRequest{Key: key, Class: "cpu", VMs: vms})
	if out.Status != 200 {
		t.Fatalf("place %q: status %d reason %q", key, out.Status, out.Reason)
	}
	return out.Resp
}

func drainClean(t *testing.T, s *Service) {
	t.Helper()
	if v := s.Drain(5 * time.Second); len(v) != 0 {
		t.Fatalf("drain left %d violations; first: %+v", len(v), v[0])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestPlaceReleaseReplay(t *testing.T) {
	s, err := NewService(testConfig(t, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	first := mustPlace(t, s, "job-1", 2)
	if len(first.Servers) != 2 || len(first.VMIDs) != 2 {
		t.Fatalf("placement shape: %+v", first)
	}
	if first.Replayed {
		t.Fatal("fresh placement marked replayed")
	}
	// A retry with the same key replays the identical placement.
	again := s.Place("test", PlaceRequest{Key: "job-1", Class: "cpu", VMs: 2})
	if again.Status != 200 || !again.Resp.Replayed {
		t.Fatalf("replay: %+v", again)
	}
	if !reflect.DeepEqual(again.Resp.Servers, first.Servers) || !reflect.DeepEqual(again.Resp.VMIDs, first.VMIDs) {
		t.Fatalf("replay diverged: %+v vs %+v", again.Resp, first)
	}
	// Distinct keys get distinct VM uids.
	second := mustPlace(t, s, "job-2", 1)
	for _, id := range second.VMIDs {
		for _, prev := range first.VMIDs {
			if id == prev {
				t.Fatalf("vm uid %d issued twice", id)
			}
		}
	}
	// Release is idempotent; releasing frees capacity state.
	rel := s.Release("job-1")
	if rel.Status != 200 || !rel.Resp.Released {
		t.Fatalf("release: %+v", rel)
	}
	rel2 := s.Release("job-1")
	if rel2.Status != 200 || !rel2.Resp.Replayed {
		t.Fatalf("double release: %+v", rel2)
	}
	if out := s.Release("never-placed"); out.Status != 404 {
		t.Fatalf("release of unknown key: %+v", out)
	}
	// A replayed place of a released key reports released, not a fresh
	// placement.
	gone := s.Place("test", PlaceRequest{Key: "job-1", Class: "cpu", VMs: 2})
	if gone.Status != 200 || !gone.Resp.Released || !gone.Resp.Replayed {
		t.Fatalf("place after release: %+v", gone)
	}
	drainClean(t, s)
}

func TestPlaceValidation(t *testing.T) {
	s, err := NewService(testConfig(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	cases := []PlaceRequest{
		{Class: "cpu", VMs: 1},                          // missing key
		{Key: "k", Class: "gpu", VMs: 1},                // unknown class
		{Key: "k", Class: "cpu", VMs: 0},                // no VMs
		{Key: "k", Class: "cpu", VMs: trace.MaxVMs + 1}, // too many
	}
	for i, req := range cases {
		if out := s.Place("test", req); out.Status != 400 {
			t.Errorf("case %d: status %d, want 400 (%+v)", i, out.Status, req)
		}
	}
	drainClean(t, s)
}

// TestOversizedBodyRejected pins the request-body cap: a place,
// release or chaos body past maxBodyBytes is answered 413 without being
// buffered whole, and the service stays healthy and keeps placing.
func TestOversizedBodyRejected(t *testing.T) {
	s, err := NewService(testConfig(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler(true)
	post := func(path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return w
	}
	huge := strings.Repeat("k", 1<<20)
	for path, body := range map[string]string{
		"/v1/place":         `{"key":"` + huge + `","class":"cpu","vms":1}`,
		"/v1/release":       `{"key":"` + huge + `"}`,
		"/v1/chaos/crash":   `{"server":0,"pad":"` + huge + `"}`,
		"/v1/chaos/recover": `{"server":0,"pad":"` + huge + `"}`,
	} {
		w := post(path, body)
		if got := w.Body.String(); w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(got, "request body over") {
			t.Errorf("%s with a 1 MiB body: %d %.80s", path, w.Code, got)
		}
	}
	if w := post("/v1/place", `{"key":"after","class":"cpu","vms":1}`); w.Code != 200 {
		t.Fatalf("place after oversized bodies: %d %s", w.Code, w.Body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/healthz", nil))
	if w.Code != 200 {
		t.Fatalf("healthz after oversized bodies: %d %s", w.Code, w.Body)
	}
	drainClean(t, s)
}

func TestConfigValidation(t *testing.T) {
	base := testConfig(t, 4, 1)
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nil db", func(c *Config) { c.DB = nil }, "nil model"},
		{"no servers", func(c *Config) { c.Servers = 0 }, "servers"},
		{"too many shards", func(c *Config) { c.Shards = 99 }, "shards"},
		{"bad max vms", func(c *Config) { c.MaxVMsPerServer = 3 }, "multiple"},
		{"unordered watermarks", func(c *Config) {
			c.Watermarks = [2]time.Duration{time.Second, time.Second}
		}, "increase"},
		{"restore without path", func(c *Config) { c.Restore = true }, "snapshot path"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := NewService(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestQueueFullAndPendingBackpressure(t *testing.T) {
	cfg := testConfig(t, 4, 1)
	cfg.QueueCap = 1
	s, err := newService(cfg) // workers not started: requests stay queued
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Outcome, 1)
	go func() { got <- s.Place("test", PlaceRequest{Key: "q-1", Class: "cpu", VMs: 1}) }()
	waitFor(t, "first request queued", func() bool { return s.queuedWork() == 1 })
	// The queue is full: the next request is shed with Retry-After.
	if out := s.Place("test", PlaceRequest{Key: "q-2", Class: "cpu", VMs: 1}); out.Status != 429 ||
		out.Reason != cloudsim.RejectQueueFull || out.RetryAfter <= 0 {
		t.Fatalf("queue-full response: %+v", out)
	}
	// A duplicate of the queued key is "pending", not a double enqueue.
	if out := s.Place("test", PlaceRequest{Key: "q-1", Class: "cpu", VMs: 1}); out.Status != 429 ||
		out.Reason != "pending" {
		t.Fatalf("pending response: %+v", out)
	}
	s.startWorkers()
	if out := <-got; out.Status != 200 {
		t.Fatalf("queued request after workers start: %+v", out)
	}
	drainClean(t, s)
}

func TestRateLimit(t *testing.T) {
	cfg := testConfig(t, 8, 1)
	cfg.RatePerSec = 0.001 // effectively one-token-per-test
	cfg.RateBurst = 1
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPlace(t, s, "rl-1", 1)
	out := s.Place("test", PlaceRequest{Key: "rl-2", Class: "cpu", VMs: 1})
	if out.Status != 429 || out.Reason != cloudsim.RejectRateLimit || out.RetryAfter <= 0 {
		t.Fatalf("rate-limited response: %+v", out)
	}
	// A different client still has its burst.
	if out := s.Place("other", PlaceRequest{Key: "rl-3", Class: "cpu", VMs: 1}); out.Status != 200 {
		t.Fatalf("second client: %+v", out)
	}
	drainClean(t, s)
}

func TestDeadlineShedsQueuedRequest(t *testing.T) {
	cfg := testConfig(t, 4, 1)
	cfg.RequestTimeout = time.Nanosecond
	s, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Outcome, 1)
	go func() { got <- s.Place("test", PlaceRequest{Key: "late", Class: "cpu", VMs: 1}) }()
	waitFor(t, "request queued", func() bool { return s.queuedWork() == 1 })
	s.startWorkers() // by now the nanosecond deadline has long passed
	if out := <-got; out.Status != 503 || out.Reason != cloudsim.RejectDeadline {
		t.Fatalf("expired request: %+v", out)
	}
	drainClean(t, s)
}

func TestCrashRequeuesAndRecover(t *testing.T) {
	s, err := NewService(testConfig(t, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	first := mustPlace(t, s, "hpc-1", 2)
	victim := first.Servers[0]
	if err := s.CrashServer(victim); err != nil {
		t.Fatal(err)
	}
	// Every VM must come back on an up server; the client's replay shows
	// the requeued placement.
	waitFor(t, "requeue off the crashed server", func() bool {
		resp := s.Place("test", PlaceRequest{Key: "hpc-1", Class: "cpu", VMs: 2}).Resp
		for _, g := range resp.Servers {
			if g < 0 || g == victim {
				return false
			}
		}
		return true
	})
	if !reflect.DeepEqual(s.Place("test", PlaceRequest{Key: "hpc-1", Class: "cpu", VMs: 2}).Resp.VMIDs, first.VMIDs) {
		t.Fatal("requeue changed the placement's VM uids")
	}
	s.wd.RunChecks(s.wallT())
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("invariants after crash+requeue: %+v", v)
	}
	// Recovery brings the server back into rotation.
	if err := s.RecoverServer(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "server recovered", func() bool {
		sh := s.shardOf(victim)
		sh.smu.Lock()
		defer sh.smu.Unlock()
		return !sh.idx.Down(victim - sh.base)
	})
	mustPlace(t, s, "hpc-2", 1)
	drainClean(t, s)
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 8, 2)
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	cfg.Recorder = cloudsim.NewDecisionRecorder()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := mustPlace(t, s, "keep-1", 2)
	b := mustPlace(t, s, "keep-2", 1)
	mustPlace(t, s, "gone-1", 1)
	if out := s.Release("gone-1"); out.Status != 200 {
		t.Fatalf("release: %+v", out)
	}
	if err := s.CrashServer(a.Servers[0]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "requeue settled", func() bool {
		resp := s.Place("test", PlaceRequest{Key: "keep-1", Class: "cpu", VMs: 2}).Resp
		for _, g := range resp.Servers {
			if g < 0 || g == a.Servers[0] {
				return false // still pre-crash, evicted, or on the victim
			}
		}
		return true
	})
	final := s.Place("test", PlaceRequest{Key: "keep-1", Class: "cpu", VMs: 2}).Resp
	drainClean(t, s) // writes the final snapshot

	cfg.Restore = true
	cfg.Recorder = nil
	r, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := r.Place("test", PlaceRequest{Key: "keep-1", Class: "cpu", VMs: 2})
	if ra.Status != 200 || !ra.Resp.Replayed ||
		!reflect.DeepEqual(ra.Resp.Servers, final.Servers) || !reflect.DeepEqual(ra.Resp.VMIDs, final.VMIDs) {
		t.Fatalf("restored keep-1 diverged: %+v vs %+v", ra.Resp, final)
	}
	rb := r.Place("test", PlaceRequest{Key: "keep-2", Class: "cpu", VMs: 1})
	if rb.Status != 200 || !rb.Resp.Replayed || !reflect.DeepEqual(rb.Resp.Servers, b.Servers) {
		t.Fatalf("restored keep-2 diverged: %+v vs %+v", rb.Resp, b)
	}
	if rg := r.Place("test", PlaceRequest{Key: "gone-1", Class: "cpu", VMs: 1}); rg.Status != 200 || !rg.Resp.Released {
		t.Fatalf("released placement not restored as released: %+v", rg)
	}
	// The crashed server must still be down after restore.
	sh := r.shardOf(a.Servers[0])
	sh.smu.Lock()
	down := sh.idx.Down(a.Servers[0] - sh.base)
	sh.smu.Unlock()
	if !down {
		t.Fatal("crashed server restored as up")
	}
	// New placements still work and do not reuse restored uids.
	fresh := mustPlace(t, r, "post-restore", 1)
	for _, id := range fresh.VMIDs {
		for _, old := range append(append([]int(nil), a.VMIDs...), b.VMIDs...) {
			if id == old {
				t.Fatalf("restored service reissued vm uid %d", id)
			}
		}
	}
	drainClean(t, r)
}

func TestJournalOnlyRestore(t *testing.T) {
	// A kill -9 before any snapshot: restore must rebuild purely from
	// the journal's acknowledged records.
	dir := t.TempDir()
	cfg := testConfig(t, 4, 1)
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	cfg.SnapshotEvery = time.Hour // never snapshots on its own
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placed := mustPlace(t, s, "wal-1", 2)
	// Abandon s without draining — its workers stay idle; the journal
	// holds the acknowledged placement, the snapshot file was never
	// written.
	if _, err := os.Stat(cfg.SnapshotPath); !os.IsNotExist(err) {
		t.Fatalf("snapshot unexpectedly exists: %v", err)
	}
	cfg.Restore = true
	r, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.wd.RunChecks(0)
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("journal-only restore violations: %+v", v)
	}
	r.startWorkers()
	out := r.Place("test", PlaceRequest{Key: "wal-1", Class: "cpu", VMs: 2})
	if out.Status != 200 || !out.Resp.Replayed || !reflect.DeepEqual(out.Resp.Servers, placed.Servers) {
		t.Fatalf("journal-only restore diverged: %+v vs %+v", out.Resp, placed)
	}
	drainClean(t, r)
}

func TestTornJournalTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 4, 1)
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	cfg.JournalPath = cfg.SnapshotPath + ".journal"
	cfg.SnapshotEvery = time.Hour
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPlace(t, s, "torn-1", 1)
	mustPlace(t, s, "torn-2", 1)
	// Simulate the crash tearing the final record mid-write.
	data, err := os.ReadFile(cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.JournalPath, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Restore = true
	r, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := r.Place("test", PlaceRequest{Key: "torn-1", Class: "cpu", VMs: 1}); out.Status != 200 || !out.Resp.Replayed {
		t.Fatalf("intact record lost: %+v", out)
	}
	// The torn record was never acknowledged; its key must place fresh.
	if out := r.Place("test", PlaceRequest{Key: "torn-2", Class: "cpu", VMs: 1}); out.Status != 200 || out.Resp.Replayed {
		t.Fatalf("torn record resurrected as a replay: %+v", out)
	}
	drainClean(t, r)
}

func TestRestoreRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 4, 1)
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustPlace(t, s, "c-1", 1)
	drainClean(t, s)
	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip a payload bit
	if err := os.WriteFile(cfg.SnapshotPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Restore = true
	if _, err := NewService(cfg); err == nil {
		t.Fatal("restore accepted a corrupt snapshot")
	}
}

func TestDecisionLogLadderAndSheds(t *testing.T) {
	rec := cloudsim.NewDecisionRecorder()
	cfg := testConfig(t, 4, 1)
	cfg.Recorder = rec
	cfg.QueueCap = 1
	s, err := newService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	placed := make(chan struct{})
	go func() {
		defer close(placed)
		s.Place("test", PlaceRequest{Key: "d-1", Class: "cpu", VMs: 1})
	}()
	waitFor(t, "queued", func() bool { return s.queuedWork() == 1 })
	s.Place("test", PlaceRequest{Key: "d-2", Class: "cpu", VMs: 1}) // queue-full shed
	s.startWorkers()
	// The worker records the place decision before it answers, so once
	// d-1's Place returns the log holds it; an empty queue alone only
	// means the worker has dequeued d-1.
	<-placed
	var sawAdmit, sawShed, sawPlace bool
	for _, d := range rec.Decisions() {
		switch d.Kind {
		case cloudsim.DecisionAdmit:
			sawAdmit = true
		case cloudsim.DecisionShed:
			if d.Reason == cloudsim.RejectQueueFull {
				sawShed = true
			}
		case cloudsim.DecisionPlace:
			sawPlace = true
		}
	}
	if !sawAdmit || !sawShed || !sawPlace {
		t.Fatalf("decision log missing kinds: admit=%v shed=%v place=%v", sawAdmit, sawShed, sawPlace)
	}
	drainClean(t, s)
}

// TestRestoreDropsSettledQueueEntries is the regression test for the
// double-apply bug the chaos soak first caught: the snapshot freezes
// the queue at Seq, but the worker keeps placing until the crash, so a
// journal record after Seq can settle an entry the snapshot still lists
// as queued. Restore must drop those instead of re-admitting them —
// re-running a settled requeue places the VM a second time and strands
// a phantom VM in the fleet index.
func TestRestoreDropsSettledQueueEntries(t *testing.T) {
	cfg := testConfig(t, 8, 2)
	dir := t.TempDir()
	cfg.SnapshotPath = filepath.Join(dir, "state.snap")
	cfg.JournalPath = cfg.SnapshotPath + ".journal"

	// Snapshot at seq 5: one placement with its only VM evicted, plus a
	// queue holding that VM's requeue and a not-yet-placed request.
	err := writeSnapshotFile(cfg.SnapshotPath, &snapPayload{
		Seq: 5, NextVMID: 3, Servers: 8, Shards: 2, MaxVMs: 4,
		Placements: []*placement{{
			Key: "evicted", Shard: 0, Servers: []int{-1}, VMIDs: []int{2},
		}},
		Queue: []queued{
			{Key: "queued", VMs: 1, Shard: 0},
			{Key: "evicted", VMs: 1, Requeue: true, Shard: 0, Slot: 0, VMID: 2},
		},
	}, new([]byte))
	if err != nil {
		t.Fatal(err)
	}
	// The journal suffix settles both entries before the "crash".
	j, err := openJournal(cfg.JournalPath, false, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.append(&jrec{Kind: jPlace, Key: "queued", placement: &placement{Servers: []int{1}, VMIDs: []int{3}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := j.append(&jrec{Kind: jRequeue, Key: "evicted", Slot: 0, VMID: 2, Server: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	cfg.Restore = true
	s, err := newService(cfg) // workers not started: queues stay inspectable
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		if len(sh.pend) != 0 || len(sh.parked) != 0 {
			t.Fatalf("shard %d re-admitted settled work: pend=%d parked=%d", sh.id, len(sh.pend), len(sh.parked))
		}
	}
	if pl := s.byKey["queued"]; pl == nil || pl.VMIDs[0] != 3 {
		t.Fatalf("journal-placed request lost: %+v", pl)
	}
	if pl := s.byKey["evicted"]; pl == nil || pl.Servers[0] != 0 {
		t.Fatalf("journal-requeued VM lost: %+v", pl)
	}
	s.wd.RunChecks(0)
	if v := s.Violations(); len(v) != 0 {
		t.Fatalf("restore left %d violations; first: %+v", len(v), v[0])
	}
	s.startWorkers()
	out := s.Place("test", PlaceRequest{Key: "evicted", Class: "cpu", VMs: 1})
	if out.Status != 200 || !out.Resp.Replayed || out.Resp.VMIDs[0] != 2 {
		t.Fatalf("replay after restore: %+v", out)
	}
	drainClean(t, s)
}

// Violations returns every invariant violation the watchdog has found.
func (s *Service) Violations() []obs.Violation { return s.wd.Violations() }
