package serve

// TestMetricsSmoke is the `make metrics-smoke` entry point: build the
// real pacevm-serve binary, run it with the full observability stack
// and chaos fault injection on, drive mixed traffic (placements,
// replays, releases, bad requests), then machine-validate the live
// /metrics exposition — both the main mux and the dedicated -metrics
// listener — and cross-check /debug/slow and the access log against a
// known request ID. Scraped artifacts land in PACEVM_SOAK_DIR (or a
// temp dir) so CI can upload them when the validation fails.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pacevm/internal/obs"
)

// scrape fetches url and returns the body, archiving it at artifact
// for post-mortem upload.
func scrape(t *testing.T, url, artifact string) []byte {
	t.Helper()
	hc := &http.Client{Timeout: 10 * time.Second}
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	if artifact != "" {
		if werr := os.WriteFile(artifact, body, 0o644); werr != nil {
			t.Logf("archiving %s: %v", artifact, werr)
		}
	}
	if resp.StatusCode != 200 {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	return body
}

// validateServeExposition runs the exposition validator and checks the
// serve metric families a live observed daemon must export.
func validateServeExposition(t *testing.T, body []byte, where string) {
	t.Helper()
	fams, err := obs.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s exposition invalid: %v", where, err)
	}
	want := map[string]string{
		"serve_requests_total":       "counter",
		"serve_placements_total":     "counter",
		"serve_degradation_level":    "gauge",
		"serve_stage_seconds":        "histogram",
		"serve_request_seconds":      "histogram",
		"serve_slo_target_seconds":   "gauge",
		"serve_slo_attainment_ratio": "gauge",
		"serve_slo_burn_rate":        "gauge",
	}
	for fam, typ := range want {
		if fams[fam] != typ {
			t.Errorf("%s: family %s = %q, want %s", where, fam, fams[fam], typ)
		}
	}
}

func TestMetricsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("metrics smoke skipped in -short")
	}
	artifacts := os.Getenv("PACEVM_SOAK_DIR")
	if artifacts == "" {
		artifacts = t.TempDir()
	} else if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	accessPath := filepath.Join(artifacts, "metrics-smoke-access.jsonl")
	// The daemon appends to its access log, and the artifacts directory
	// outlives a run: start from an empty log, or a rerun counts the
	// previous run's pinned request too.
	if err := os.Remove(accessPath); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	bin := buildServe(t, t.TempDir())
	mdir := writeModelDir(t)
	d, base := startDaemon(t, bin,
		"-addr", "127.0.0.1:0",
		"-model", mdir,
		"-servers", "16", "-shards", "2", "-max-vms", "4",
		"-watermarks", "200us,4ms", "-dwell", "25ms",
		"-metrics", "127.0.0.1:0",
		"-access-log", accessPath,
		"-slo-target", "250ms", "-slo-window", "30s",
		"-slow-ring", "16",
		"-chaos-mtbf", "0.5", "-chaos-mttr", "0.25", "-chaos-seed", "11",
		"-drain-timeout", "30s",
	)

	// The dedicated metrics listener reports its own address on stdout
	// before the main one.
	var metricsBase string
	waitFor(t, "metrics listener address", func() bool {
		for _, line := range strings.Split(d.output(), "\n") {
			if rest, ok := strings.CutPrefix(line, "pacevm-serve: metrics on "); ok {
				metricsBase = "http://" + rest
				return true
			}
		}
		return false
	})

	// Mixed traffic under chaos: placements (one with a pinned request
	// ID), replays, releases, and a bad request, spread over ~1.5s so
	// the fault schedule fires while requests are in flight. The pinned
	// placement goes first: it is sent once, with no retry, so it must
	// not meet a fleet the traffic after it has filled, where a crash
	// leaves no free io slot and the answer is 503.
	const pinnedID = "req-metrics-smoke-pinned"
	req, _ := http.NewRequest("POST", base+"/v1/place",
		strings.NewReader(`{"key":"smoke-pinned","class":"io","vms":1}`))
	req.Header.Set("X-Request-Id", pinnedID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Request-Id") != pinnedID {
		t.Fatalf("pinned place: status %d id %q", resp.StatusCode, resp.Header.Get("X-Request-Id"))
	}
	cli := newSoakClient(t, base)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("smoke-%d", i)
		if !cli.place("smoke", key, 1+i%2, true, deadline) {
			t.Fatalf("place %s never acknowledged", key)
		}
		if i%4 == 0 {
			cli.release(key, deadline)
		}
		if i%8 == 0 {
			cli.place("smoke", key, 1+i%2, true, deadline) // replay
		}
		time.Sleep(25 * time.Millisecond)
	}
	if resp, err := http.Post(base+"/v1/place", "application/json",
		strings.NewReader("{not json")); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Scrape both exposition endpoints while chaos is still live and
	// machine-validate them.
	mainBody := scrape(t, base+"/metrics", filepath.Join(artifacts, "metrics-smoke-main.prom"))
	validateServeExposition(t, mainBody, "main mux")
	dedicatedBody := scrape(t, metricsBase+"/metrics", filepath.Join(artifacts, "metrics-smoke-dedicated.prom"))
	validateServeExposition(t, dedicatedBody, "dedicated listener")

	// The pinned request must be traceable end to end: /debug/slow has
	// its seven-stage breakdown and the access log its JSONL line.
	slowBody := scrape(t, metricsBase+"/debug/slow", filepath.Join(artifacts, "metrics-smoke-slow.json"))
	var slow []obs.SlowRequest
	if err := json.Unmarshal(slowBody, &slow); err != nil {
		t.Fatalf("/debug/slow: %v\n%s", err, slowBody)
	}
	if len(slow) == 0 {
		t.Fatal("/debug/slow empty after 40+ requests")
	}
	for _, sr := range slow {
		if len(sr.Stages) != numStages {
			t.Fatalf("slow request %s has %d stages, want %d", sr.RequestID, len(sr.Stages), numStages)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exited dirty: %v\n%s", err, d.output())
		}
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatalf("daemon did not drain\n%s", d.output())
	}

	// Access log: every line is valid JSON with the required fields, and
	// the pinned request ID appears exactly once.
	raw, err := os.ReadFile(accessPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 40 {
		t.Fatalf("access log has %d lines, want >= 40", len(lines))
	}
	pinned := 0
	for i, line := range lines {
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access line %d: %v\n%s", i+1, err, line)
		}
		if rec.RequestID == "" || rec.Route == "" || rec.Outcome == "" || rec.TS == "" {
			t.Fatalf("access line %d missing fields: %+v", i+1, rec)
		}
		if rec.RequestID == pinnedID {
			pinned++
			if rec.Route != "/v1/place" || rec.Outcome != "placed" || rec.Key != "smoke-pinned" {
				t.Fatalf("pinned access record: %+v", rec)
			}
		}
	}
	if pinned != 1 {
		t.Fatalf("pinned request ID appears %d times in access log, want 1", pinned)
	}
	t.Logf("metrics smoke: %d access-log lines, %d slow-ring entries, expositions valid", len(lines), len(slow))
}
