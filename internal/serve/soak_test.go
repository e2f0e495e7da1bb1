package serve

// Chaos soak: builds the real pacevm-serve binary and drives it the way
// the ISSUE demands — injected server faults, overload bursts beyond the
// queue bound, a mid-run kill -9 followed by -restore, and a SIGTERM
// drain — then proves:
//
//   - zero lost or duplicated placements: every 200-acknowledged key
//     replays identically after the crash/restore, with globally unique
//     VM ids, and released keys stay released;
//   - the five watchdog invariants are clean post-restore (the daemon
//     refuses to serve on a dirty restore, and exits non-zero if any
//     sweep or the final drain check fires);
//   - the degradation ladder both steps down under the bursts and
//     recovers in the quiet tail, visible in the decision log.
//
// Runs ~3s by default so it rides along with `go test ./...`;
// PACEVM_SOAK_SECONDS stretches it (make serve-soak uses 30) and
// PACEVM_SOAK_DIR pins the artifact directory so CI can upload the
// snapshot/journal/decision log on failure.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pacevm/internal/cloudsim"
	"pacevm/internal/obs"
)

// repoRoot locates the module root from this file's path so the test
// can `go build ./cmd/pacevm-serve` regardless of the working dir.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func buildServe(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pacevm-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pacevm-serve")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pacevm-serve: %v\n%s", err, out)
	}
	return bin
}

// writeModelDir materialises the shared test model as model.csv/aux.csv
// so the daemon skips its in-process campaign on every start.
func writeModelDir(t *testing.T) string {
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

// daemon wraps one pacevm-serve process: its combined output (collected
// live) and its exit status.
type daemon struct {
	cmd  *exec.Cmd
	done chan error

	mu  sync.Mutex
	out bytes.Buffer
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

// startDaemon launches the binary and blocks until it reports its
// listen address (the daemon binds :0, so each run picks a fresh port).
func startDaemon(t *testing.T, bin string, args ...string) (*daemon, string) {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan error, 1)}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = &lockedWriter{d: d}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A test that fails before it drains the daemon must not leave it
	// running; after a clean exit the kill is a no-op.
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.out.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "pacevm-serve: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		d.done <- d.cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		return d, "http://" + addr
	case err := <-d.done:
		t.Fatalf("daemon exited before listening: %v\n%s", err, d.output())
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		t.Fatalf("daemon never reported its listen address\n%s", d.output())
	}
	panic("unreachable")
}

type lockedWriter struct{ d *daemon }

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.out.Write(p)
}

// soakClient drives the HTTP API and keeps the ground truth the final
// consistency check is judged against: the first acknowledged response
// per key, and which keys were released.
type soakClient struct {
	t  *testing.T
	hc *http.Client

	mu       sync.Mutex
	base     string
	acks     map[string]PlaceResponse
	released map[string]bool
	errs     []string
}

func newSoakClient(t *testing.T, base string) *soakClient {
	return &soakClient{
		t:        t,
		hc:       &http.Client{Timeout: 5 * time.Second},
		base:     base,
		acks:     make(map[string]PlaceResponse),
		released: make(map[string]bool),
	}
}

func (c *soakClient) setBase(base string) {
	c.mu.Lock()
	c.base = base
	c.mu.Unlock()
}

func (c *soakClient) url(path string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base + path
}

// fail records a consistency violation; collected instead of t.Fatal so
// load goroutines can keep going and we report every violation at once.
func (c *soakClient) fail(format string, args ...any) {
	c.mu.Lock()
	c.errs = append(c.errs, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

// place sends one /v1/place. With retry=true it keeps retrying through
// backpressure (429/503) and daemon downtime until acknowledged or the
// deadline passes; with retry=false it is a single fire-and-forget shot
// (burst traffic — shedding it is the expected outcome). Every 200 is
// checked against the recorded ground truth for double placement.
func (c *soakClient) place(cid, key string, vms int, retry bool, deadline time.Time) bool {
	body, _ := json.Marshal(PlaceRequest{Key: key, Class: []string{"cpu", "mem", "io"}[len(key)%3], VMs: vms})
	for {
		req, err := http.NewRequest("POST", c.url("/v1/place"), bytes.NewReader(body))
		if err != nil {
			c.fail("place %s: %v", key, err)
			return false
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-Id", cid)
		resp, err := c.hc.Do(req)
		if err == nil {
			func() {
				defer resp.Body.Close()
				if resp.StatusCode != 200 {
					return
				}
				var pr PlaceResponse
				if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
					c.fail("place %s: bad 200 body: %v", key, err)
					return
				}
				c.record(key, pr)
			}()
			if resp.StatusCode == 200 {
				return true
			}
			if resp.StatusCode == 400 {
				c.fail("place %s: unexpected 400", key)
				return false
			}
		}
		if !retry || time.Now().After(deadline) {
			return false
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// record folds an acknowledged placement into the ground truth. A
// second 200 for a key must be a replay of the first — anything else is
// the double-placement the WAL + idempotency keys exist to prevent.
func (c *soakClient) record(key string, pr PlaceResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, seen := c.acks[key]
	if !seen {
		// First client-visible ack. Replayed=true is legal here: the
		// original ack can be lost in a kill -9.
		c.acks[key] = pr
		return
	}
	if !pr.Replayed && !prev.Released && !pr.Released {
		c.errs = append(c.errs, fmt.Sprintf("key %s placed twice without replay flag", key))
	}
	if c.released[key] && !pr.Released {
		c.errs = append(c.errs, fmt.Sprintf("key %s was released but replayed live", key))
	}
	if !prev.Released && !pr.Released && !sameInts(prev.VMIDs, pr.VMIDs) {
		c.errs = append(c.errs, fmt.Sprintf("key %s replayed with different VM ids: %v then %v", key, prev.VMIDs, pr.VMIDs))
	}
}

func (c *soakClient) release(key string, deadline time.Time) {
	body, _ := json.Marshal(map[string]string{"key": key})
	for {
		resp, err := c.hc.Post(c.url("/v1/release"), "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == 200 {
				c.mu.Lock()
				c.released[key] = true
				c.mu.Unlock()
				return
			}
			if code == 404 {
				c.fail("release %s: 404 for an acknowledged key", key)
				return
			}
		}
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func soakSeconds() float64 {
	if s := os.Getenv("PACEVM_SOAK_SECONDS"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 3
}

func TestServeChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	total := time.Duration(soakSeconds() * float64(time.Second))

	artifacts := os.Getenv("PACEVM_SOAK_DIR")
	if artifacts == "" {
		artifacts = t.TempDir()
	} else if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(artifacts, "state.snap")
	dlog := filepath.Join(artifacts, "decisions.jsonl")
	alog := filepath.Join(artifacts, "access.jsonl")

	bin := buildServe(t, t.TempDir())
	mdir := writeModelDir(t)
	args := func(restore bool) []string {
		a := []string{
			"-addr", "127.0.0.1:0",
			"-model", mdir,
			"-servers", "16", "-shards", "2", "-max-vms", "4",
			"-queue-cap", "16",
			"-rate", "300", "-burst", "30",
			"-timeout", "3s",
			"-watermarks", "200us,4ms", "-dwell", "25ms", "-hysteresis", "0.5",
			"-snapshot", snap, "-snapshot-every", "150ms",
			"-watchdog", "150ms",
			"-drain-timeout", "30s",
			"-decision-log", dlog,
			"-access-log", alog,
			"-slo-target", "250ms", "-slow-ring", "16",
			"-chaos-mtbf", "0.5", "-chaos-mttr", "0.25", "-chaos-seed", "7",
		}
		if restore {
			a = append(a, "-restore")
		}
		return a
	}

	d, base := startDaemon(t, bin, args(false)...)
	cli := newSoakClient(t, base)
	hardStop := time.Now().Add(total + 90*time.Second)

	// Steady clients: place, sometimes release, across the whole soak
	// (riding through the kill -9 by retrying).
	var stopLoad sync.WaitGroup
	loadDone := make(chan struct{})
	for g := 0; g < 6; g++ {
		stopLoad.Add(1)
		go func(g int) {
			defer stopLoad.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; ; n++ {
				select {
				case <-loadDone:
					return
				default:
				}
				key := fmt.Sprintf("steady-%d-%d", g, n)
				if cli.place(fmt.Sprintf("steady-%d", g), key, 1+rng.Intn(2), true, time.Now().Add(20*time.Second)) && n%2 == 0 {
					cli.release(key, time.Now().Add(20*time.Second))
				}
				time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
			}
		}(g)
	}
	// A burst is 64 concurrent requests from one client identity, which
	// the per-client token bucket (-burst 30) cuts to about 30 — the
	// shed outcomes the logs must show — plus 64 more spread over
	// burstClients identities, 16 each, that all clear their buckets.
	// The rate-limited half alone put only about 34 requests on the 2 ×
	// 16 queue slots per burst, so whether the queue wait crossed the
	// ladder's first watermark hung on how fast the workers drained
	// them; the admitted half doubles what reaches the queues.
	const burstClients = 4
	burst := func(tag string) {
		var wg sync.WaitGroup
		for i := 0; i < 128; i++ {
			cid := "burster"
			if i >= 64 {
				cid = fmt.Sprintf("burster-%d", i%burstClients)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				cli.place(cid, fmt.Sprintf("burst-%s-%d", tag, i), 2, false, time.Time{})
			}(i)
		}
		wg.Wait()
	}

	// Phase 1: steady load plus a couple of warm-up bursts, long enough
	// for at least one periodic snapshot to land.
	phase1 := total * 3 / 10
	time.Sleep(phase1 / 2)
	burst("warm")
	time.Sleep(phase1 / 2)
	waitFor(t, "first snapshot", func() bool {
		fi, err := os.Stat(snap)
		return err == nil && fi.Size() > 0
	})

	// Kill -9 mid-run, with load still in flight.
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d.done
	t.Logf("killed -9 after %v; restoring", phase1)

	d2, base2 := startDaemon(t, bin, args(true)...)
	cli.setBase(base2)

	// Phase 2: the 10 overload bursts the ISSUE demands, with steady
	// load underneath, then a quiet tail for the ladder to recover in.
	phase2 := total * 55 / 100
	for i := 0; i < 10; i++ {
		burst(strconv.Itoa(i))
		time.Sleep(phase2 / 10)
	}

	// Mid-chaos observability check: the live /metrics exposition must
	// machine-validate and carry the request-latency families even with
	// faults firing and bursts being shed.
	func() {
		resp, err := cli.hc.Get(cli.url("/metrics"))
		if err != nil {
			t.Errorf("mid-chaos /metrics scrape: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		_ = os.WriteFile(filepath.Join(artifacts, "soak-metrics.prom"), body, 0o644)
		fams, err := obs.ValidateExposition(bytes.NewReader(body))
		if err != nil {
			t.Errorf("mid-chaos exposition invalid: %v", err)
			return
		}
		for _, fam := range []string{"serve_stage_seconds", "serve_request_seconds", "serve_slo_burn_rate"} {
			if _, ok := fams[fam]; !ok {
				t.Errorf("mid-chaos /metrics missing family %s", fam)
			}
		}
	}()
	close(loadDone)
	stopLoad.Wait()

	quiet := total - phase1 - phase2
	if quiet < 1200*time.Millisecond {
		quiet = 1200 * time.Millisecond
	}
	time.Sleep(quiet)

	// Consistency audit against the live (restored) daemon: every
	// acknowledged key must replay identically; released keys must have
	// stayed released.
	cli.mu.Lock()
	keys := make([]string, 0, len(cli.acks))
	for k := range cli.acks {
		keys = append(keys, k)
	}
	cli.mu.Unlock()
	for _, k := range keys {
		if !cli.place("audit", k, 1, true, time.Now().Add(20*time.Second)) {
			cli.fail("key %s lost: replay never acknowledged", k)
		}
	}
	cli.mu.Lock()
	seen := make(map[int]string)
	for k, pr := range cli.acks {
		for _, id := range pr.VMIDs {
			if prev, dup := seen[id]; dup {
				cli.errs = append(cli.errs, fmt.Sprintf("vm id %d issued to both %s and %s", id, prev, k))
			}
			seen[id] = k
		}
	}
	nAcked, errs := len(cli.acks), cli.errs
	cli.mu.Unlock()
	if time.Now().After(hardStop) {
		t.Errorf("soak overran its hard stop")
	}
	for _, e := range errs {
		t.Error(e)
	}
	if nAcked < 20 {
		t.Errorf("only %d acknowledged placements; soak did not exercise the service", nAcked)
	}

	// SIGTERM drain: the daemon writes the final snapshot, sweeps the
	// watchdog, dumps the decision log, and must exit 0 (any invariant
	// violation, including post-restore, makes it exit non-zero).
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d2.done:
		if err != nil {
			t.Fatalf("daemon exited dirty after drain: %v\n%s", err, d2.output())
		}
	case <-time.After(60 * time.Second):
		_ = d2.cmd.Process.Kill()
		t.Fatalf("daemon did not drain\n%s", d2.output())
	}
	if !strings.Contains(d2.output(), "drained clean") {
		t.Fatalf("missing clean-drain confirmation:\n%s", d2.output())
	}

	// The ladder must have stepped down under the bursts AND recovered
	// in the quiet tail — both visible in the decision log.
	f, err := os.Open(dlog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decisions, err := cloudsim.ReadDecisionLog(f)
	if err != nil {
		t.Fatal(err)
	}
	var down, up, placed, shed bool
	for _, dec := range decisions {
		switch dec.Kind {
		case cloudsim.DecisionDegrade:
			if dec.To > dec.From {
				down = true
			}
			if dec.To < dec.From {
				up = true
			}
		case cloudsim.DecisionPlace:
			placed = true
		case cloudsim.DecisionShed:
			shed = true
		}
	}
	if !down || !up {
		t.Errorf("decision log: ladder stepped down=%v recovered=%v, want both (of %d decisions)", down, up, len(decisions))
	}
	if !placed || !shed {
		t.Errorf("decision log: placed=%v shed=%v, want both", placed, shed)
	}

	// The access log survives the kill -9 (O_APPEND across both runs)
	// and every line is valid JSON carrying a request ID; the soak's
	// shed bursts must show up as shed outcomes.
	raw, err := os.ReadFile(alog)
	if err != nil {
		t.Fatal(err)
	}
	aLines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(aLines) < nAcked {
		t.Errorf("access log has %d lines for %d acked placements", len(aLines), nAcked)
	}
	sawShed := false
	for i, line := range aLines {
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access line %d: %v\n%s", i+1, err, line)
		}
		if rec.RequestID == "" || rec.Outcome == "" {
			t.Fatalf("access line %d missing fields: %+v", i+1, rec)
		}
		if rec.Outcome == "shed" {
			sawShed = true
		}
	}
	if !sawShed {
		t.Error("access log recorded no shed outcomes despite overload bursts")
	}
	t.Logf("soak: %d acked placements, %d decisions logged, %d access lines, restore clean", nAcked, len(decisions), len(aLines))
}
