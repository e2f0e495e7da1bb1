package main

import (
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pacevm/internal/campaign"
	"pacevm/internal/model"
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

func TestParseWatermarks(t *testing.T) {
	marks, err := parseWatermarks("20ms, 300ms")
	if err != nil {
		t.Fatal(err)
	}
	want := [2]time.Duration{20 * time.Millisecond, 300 * time.Millisecond}
	if marks != want {
		t.Fatalf("got %v, want %v", marks, want)
	}
	for _, bad := range []string{"", "1ms", "1ms,2ms,3ms", "1ms,2ms,3ms,4ms", "x,2ms", "1ms,2"} {
		if _, err := parseWatermarks(bad); err == nil {
			t.Errorf("parseWatermarks(%q) accepted bad input", bad)
		}
	}
}

// baseOptions mirrors main()'s flag defaults, pointed at a CSV model
// dir so run() never launches an in-process campaign per case.
func baseOptions(t *testing.T) options {
	return options{
		addr: "127.0.0.1:0", servers: 8, shards: 2, modelDir: modelDir(t),
		alpha: 0.5, maxVMs: 4, queueCap: 16,
		timeout: time.Second, watermarks: "200ms,800ms",
		hysteresis: 0.5, dwell: 100 * time.Millisecond, burst: 8,
		snapshotEvery: time.Second, watchdogEvery: -1,
		drainTimeout: 5 * time.Second, chaosMTTR: 5, chaosHorizon: time.Hour,
	}
}

// TestServiceConfigRecorder pins the flight recorder as opt-in: the
// service gets a recorder only when -decision-log names a file to write
// it to, and the other flags land on their config fields.
func TestServiceConfigRecorder(t *testing.T) {
	marks := [2]time.Duration{time.Millisecond, 2 * time.Millisecond}
	opt := baseOptions(t)
	cfg := serviceConfig(opt, marks, sharedDB(t), nil)
	if cfg.Recorder != nil {
		t.Fatal("recorder attached without -decision-log")
	}
	if cfg.Servers != opt.servers || cfg.Shards != opt.shards || cfg.Watermarks != marks || cfg.DB != sharedDB(t) {
		t.Fatalf("flags not carried over: %+v", cfg)
	}
	opt.decisionLog = filepath.Join(t.TempDir(), "d.jsonl")
	if cfg := serviceConfig(opt, marks, sharedDB(t), nil); cfg.Recorder == nil {
		t.Fatal("no recorder with -decision-log set")
	}
}

// TestRunErrorPaths drives run() through each failure mode a user can
// hit from the command line; every one must surface as an error rather
// than a panic or a silently-started daemon.
func TestRunErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*options)
		want string
	}{
		{"watermark count", func(o *options) { o.watermarks = "1ms,2ms,3ms" }, "exactly 2"},
		{"watermark junk", func(o *options) { o.watermarks = "1ms,zzz" }, "watermarks"},
		{"watermark order", func(o *options) { o.watermarks = "2ms,1ms" }, "strictly increase"},
		{"alpha low", func(o *options) { o.alpha = -0.1 }, "alpha"},
		{"alpha high", func(o *options) { o.alpha = 1.1 }, "alpha"},
		{"missing model", func(o *options) { o.modelDir = filepath.Join(t.TempDir(), "nope") }, "no such file"},
		{"bad max-vms", func(o *options) { o.maxVMs = 3 }, "multiple"},
		{"bad shards", func(o *options) { o.shards = 99 }, "shards"},
		{"restore without snapshot", func(o *options) { o.restore = true }, "restore"},
		{"bad chaos mttr", func(o *options) { o.chaosMTBF = 1; o.chaosMTTR = -1 }, "MTTR"},
		{"bad listen addr", func(o *options) { o.addr = "127.0.0.1:notaport" }, "listen"},
		{"bad metrics addr", func(o *options) { o.metricsAddr = "127.0.0.1:notaport" }, "metrics listener"},
		{"bad access log", func(o *options) {
			o.accessLog = filepath.Join(t.TempDir(), "missing-dir", "access.jsonl")
		}, "access log"},
		{"negative slo target", func(o *options) { o.sloTarget = -time.Second }, "SLO target"},
		{"bad slo objective", func(o *options) { o.sloTarget = time.Second; o.sloObjective = 2 }, "objective"},
		{"negative slo window", func(o *options) { o.sloTarget = time.Second; o.sloWindow = -time.Minute }, "window"},
		{"negative slow ring", func(o *options) { o.slowRing = -1 }, "slow ring"},
		{"negative header timeout", func(o *options) { o.readHeaderTimeout = -time.Second }, "must not be negative"},
		{"negative read timeout", func(o *options) { o.readTimeout = -time.Second }, "must not be negative"},
		{"negative idle timeout", func(o *options) { o.idleTimeout = -time.Second }, "must not be negative"},
	}
	for _, tc := range cases {
		opt := baseOptions(t)
		tc.mut(&opt)
		err := run(opt)
		if err == nil {
			t.Errorf("%s: run() accepted bad options", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestNewHTTPServerTimeouts pins the slow-client deadlines onto the
// constructed server, flag-overridable.
func TestNewHTTPServerTimeouts(t *testing.T) {
	opt := options{
		readHeaderTimeout: 7 * time.Second,
		readTimeout:       11 * time.Second,
		idleTimeout:       13 * time.Second,
	}
	srv := newHTTPServer(opt, http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 7*time.Second ||
		srv.ReadTimeout != 11*time.Second ||
		srv.IdleTimeout != 13*time.Second {
		t.Fatalf("server timeouts: header %v read %v idle %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not set")
	}
}

// TestSlowLorisCut proves the ReadHeaderTimeout actually severs a
// client that trickles its headers: the connection must be closed by
// the server well before a patient attacker would finish.
func TestSlowLorisCut(t *testing.T) {
	opt := baseOptions(t)
	opt.readHeaderTimeout = 150 * time.Millisecond
	srv := newHTTPServer(opt, http.NotFoundHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go srv.Serve(ln) //nolint:errcheck // closed at test end
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial request line and then stall; the server must hang
	// up once the header deadline passes instead of waiting forever.
	if _, err := conn.Write([]byte("POST /v1/place HTTP/1.1\r\nHost: x\r\nX-Dribble: ")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a half-sent request")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not cut the slow-loris connection within 5s")
	}
	if waited := time.Since(start); waited > 4*time.Second {
		t.Fatalf("connection cut only after %v", waited)
	}
}
