package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phase is a stretch of open-loop load at one fixed Poisson rate, fixed
// in request count rather than duration: the service's state (acked
// keys, snapshot size) grows with every request, so equal counts keep
// phases comparable across runs.
type phase struct {
	name  string
	rate  float64 // place+release pairs per second
	pairs int
}

// serveSpec is a serve-durable load plan: two fixed-rate phases, then a
// rising rate ladder. Every rung runs, so every run does the same work
// and grows the same state; max_ok_rate is the top of the passing ones.
type serveSpec struct {
	light, heavy phase
	ladder       []float64
	ladderPairs  int
}

// servePlan is the load every workload drives the service with. Rates
// sit below the knee of two keep-alive connections against a journal
// that fsyncs every record (1,000 to 2,000 pairs/s on a 2-vCPU host);
// the ladder doubles, so run-to-run noise moves the knee within one
// rung rather than across rungs.
var servePlan = serveSpec{
	light:  phase{"light", 250, 750},
	heavy:  phase{"heavy", 800, 6000},
	ladder: []float64{1000, 2000, 4000}, ladderPairs: 1000,
}

const (
	// liveWindow is how many placements stay live: each is released
	// when the placement liveWindow later is sent. 64 mixed jobs never
	// exhaust the 66-server fleet, so no request is refused for capacity.
	liveWindow = 64
	// replayProb makes about one send in ten an idempotent retry of an
	// already-acknowledged key.
	replayProb = 0.22
	// p90LimitMS is the place latency limit of the rate ladder.
	p90LimitMS = 20.0
	// senders is the client's concurrency and keep-alive connection
	// count.
	senders = 2
)

// serveArgs are pacevm-serve's flags for this benchmark: production
// defaults (66 servers, 16 VMs per server, PA-0.5, watchdog, snapshots
// every 2 s) plus two shards and fsync'd durability. -slow-ring 0 keeps
// request tracing off, which the binary's default of 32 turns on.
func serveArgs(dir string, accessLog bool) []string {
	args := []string{"-addr", "127.0.0.1:0", "-shards", "2",
		"-snapshot", filepath.Join(dir, "state.snap"), "-fsync", "-slow-ring", "0"}
	if accessLog {
		args = append(args, "-access-log", filepath.Join(dir, "access.jsonl"))
	}
	return args
}

// lockedBuffer collects a child's output while it runs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// server is one running pacevm-serve process.
type server struct {
	cmd    *exec.Cmd
	dir    string
	base   string // http://host:port
	stdout lockedBuffer
	stderr lockedBuffer
}

// startServer spawns pacevm-serve and returns once /v1/healthz answers
// 200, with the time that took.
func startServer(bin, dir string, accessLog bool) (*server, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	s := &server{dir: dir}
	s.cmd = exec.Command(bin, serveArgs(dir, accessLog)...)
	s.cmd.Stdout, s.cmd.Stderr = &s.stdout, &s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	deadline := t0.Add(60 * time.Second)
	for s.base == "" {
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("pacevm-serve printed no listen address: %s", s.stderr.String())
		}
		if _, rest, ok := strings.Cut(s.stdout.String(), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				s.base = "http://" + addr
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := http.Get(s.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse only
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("pacevm-serve not healthy: %v: %s", err, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// signalSettle is how long a freshly healthy service is left before it
// is sent SIGTERM. pacevm-serve answers HTTP a moment before it installs
// its SIGTERM handler, so a signal sent at once can kill it outright
// (exit -1 with no drain) instead of draining it.
const signalSettle = 200 * time.Millisecond

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// stop sends SIGTERM and waits for the drain, killing the process if it
// hangs. It returns the exit code and the peak resident set in MB.
func (s *server) stop() (exitCode int, peakMB float64, err error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return -1, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return -1, 0, fmt.Errorf("pacevm-serve did not drain within 60 s")
	}
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakMB = float64(ru.Maxrss) / 1024
	}
	return s.cmd.ProcessState.ExitCode(), peakMB, nil
}

// cpu is the CPU time (user plus system) the running service has used so
// far, read from /proc/<pid>/stat, which counts it in ticks of 1/100 s.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis start at field 3, so utime and stime (fields
	// 14 and 15) are the 12th and 13th of them.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", raw)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc stat: %w", err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

// placeResp is the part of a /v1/place or /v1/release answer the client
// checks.
type placeResp struct {
	Servers  []int `json:"servers"`
	VMIDs    []int `json:"vm_ids"`
	Replayed bool  `json:"replayed"`
}

// client sends requests over at most senders keep-alive connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *client) post(path, reqID string, body []byte) (int, placeResp, error) {
	req, err := http.NewRequest("POST", c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, placeResp{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, placeResp{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, placeResp{}, err
	}
	var pr placeResp
	if resp.StatusCode == 200 {
		if err := json.Unmarshal(raw, &pr); err != nil {
			return resp.StatusCode, pr, err
		}
	}
	return resp.StatusCode, pr, nil
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// sop is one scheduled client operation.
type sop struct {
	kind  string
	key   int // index into the phase's keys
	class string
	vms   int
	due   time.Duration
}

var classes = []string{"cpu", "mem", "io"}

// buildPhase lays out a phase's schedule: places at Poisson times, each
// releasing the key placed liveWindow earlier, occasional replays of a
// live acknowledged key, and finally the release of the keys still live.
func buildPhase(rng *rand.Rand, ph phase) []sop {
	var ops []sop
	var t float64
	next := func() time.Duration {
		t += rng.ExpFloat64() / ph.rate
		return time.Duration(t * float64(time.Second))
	}
	for i := 0; i < ph.pairs; i++ {
		due := next()
		ops = append(ops, sop{kind: opPlace, key: i, class: classes[rng.IntN(len(classes))], vms: 1 + rng.IntN(4), due: due})
		if i >= liveWindow {
			ops = append(ops, sop{kind: opRelease, key: i - liveWindow, due: due})
		}
		// Replay a key placed between liveWindow and liveWindow/2 places
		// ago: still live, and long since acknowledged at any rate the
		// service keeps up with.
		lo, hi := max(i-liveWindow+1, 0), i-liveWindow/2
		if hi >= lo && rng.Float64() < replayProb {
			ops = append(ops, sop{kind: opReplay, key: lo + rng.IntN(hi-lo+1), due: due})
		}
	}
	for k := max(ph.pairs-liveWindow, 0); k < ph.pairs; k++ {
		ops = append(ops, sop{kind: opRelease, key: k, due: next()})
	}
	return ops
}

// windows is how many consecutive stretches of its schedule a phase is
// cut into. A phase's p50 and p90 are the medians of the windows' own
// percentiles, so a host stall that spoils one window does not move
// them; p99 is taken over the whole phase.
const windows = 10

// phaseResult is one phase as the client measured it.
type phaseResult struct {
	Offered    float64 `json:"offered_per_s"`
	Achieved   float64 `json:"achieved_per_s"`
	PlaceP50   float64 `json:"place_p50_ms"`
	PlaceP90   float64 `json:"place_p90_ms"`
	PlaceP99   float64 `json:"place_p99_ms"`
	ReplayP50  float64 `json:"replay_p50_ms"`
	ReleaseP50 float64 `json:"release_p50_ms"`
	LateP90    float64 `json:"late_p90_ms"`
	Ops        int     `json:"ops"`
	Failed     int     `json:"failed"`
	// placeMS maps each acknowledged place's request ID to its client
	// latency, for pairing with the access log.
	placeMS map[string]float64
}

// ok reports whether the phase met the ladder's limit: place p90 under
// p90LimitMS, acknowledgements keeping up with the offered rate (a
// growing backlog falls behind it), and nothing failed.
func (r phaseResult) ok() bool {
	return r.Failed == 0 && r.PlaceP90 < p90LimitMS && r.Achieved >= 0.95*r.Offered
}

// runPhase drives one phase against the service and appends every
// exchange to tr.
func runPhase(c *client, rng *rand.Rand, ph phase, keyBase int, tr *transcript) phaseResult {
	ops := buildPhase(rng, ph)
	type keyState struct {
		done chan struct{}
		ok   bool
		body []byte // the place request, resent verbatim by replays
	}
	keys := make([]keyState, ph.pairs)
	for i := range keys {
		keys[i].done = make(chan struct{})
	}
	ex := make([]exchange, len(ops))
	sent := make([]bool, len(ops))
	due := make([]time.Duration, len(ops))
	for i, o := range ops {
		due[i] = o.due
	}
	do := func(i int) {
		o := ops[i]
		key := "k" + strconv.Itoa(keyBase+o.key)
		e := exchange{Op: o.kind, Key: key}
		ks := &keys[o.key]
		reqID := ph.name + "-" + strconv.Itoa(i)
		switch o.kind {
		case opPlace:
			body, _ := json.Marshal(map[string]any{"key": key, "class": o.class, "vms": o.vms})
			ks.body = body
			st, pr, err := c.post("/v1/place", reqID, body)
			if err != nil {
				st = 0
			}
			e.Status, e.Servers, e.VMIDs, e.Replayed = st, pr.Servers, pr.VMIDs, pr.Replayed
			ks.ok = st == 200
			close(ks.done)
		default:
			<-ks.done // a replay or release follows its key's place
			if !ks.ok {
				break // never sent: counted failed below
			}
			path, body := "/v1/place", ks.body
			if o.kind == opRelease {
				path, body = "/v1/release", []byte(`{"key":"`+key+`"}`)
			}
			st, pr, err := c.post(path, reqID, body)
			if err != nil {
				st = 0
			}
			e.Status, e.Servers, e.VMIDs, e.Replayed = st, pr.Servers, pr.VMIDs, pr.Replayed
		}
		ex[i], sent[i] = e, true
	}
	start := time.Now().Add(5 * time.Millisecond)
	lat, late := openLoop(start, due, senders, do)

	res := phaseResult{Ops: len(ops), placeMS: map[string]float64{}}
	var all []float64
	var place, replay, release [windows][]float64
	var lateMS []float64
	var lastPlaceDue, lastPlaceDone time.Duration
	span := ops[len(ops)-1].due
	for i, o := range ops {
		lateMS = append(lateMS, ms(late[i]))
		if !sent[i] || ex[i].Status != 200 {
			res.Failed++
			continue
		}
		l, w := ms(lat[i]), min(int(windows*o.due/(span+1)), windows-1)
		switch o.kind {
		case opPlace:
			place[w] = append(place[w], l)
			all = append(all, l)
			lastPlaceDue, lastPlaceDone = o.due, max(lastPlaceDone, o.due+lat[i])
			res.placeMS[ph.name+"-"+strconv.Itoa(i)] = l
		case opReplay:
			replay[w] = append(replay[w], l)
		case opRelease:
			release[w] = append(release[w], l)
		}
	}
	tr.Exchanges = append(tr.Exchanges, ex...)
	res.Offered = float64(ph.pairs) / lastPlaceDue.Seconds()
	res.Achieved = float64(len(all)) / lastPlaceDone.Seconds()
	res.PlaceP50, res.PlaceP90 = windowed(place, 0.5), windowed(place, 0.9)
	res.PlaceP99 = quantile(all, 0.99)
	res.ReplayP50, res.ReleaseP50 = windowed(replay, 0.5), windowed(release, 0.5)
	res.LateP90 = quantile(lateMS, 0.9)
	return res
}

// windowed is the median over windows of each window's q-quantile.
func windowed(ws [windows][]float64, q float64) float64 {
	var qs []float64
	for _, w := range ws {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// serveRun is one service lifetime under the full load plan.
type serveRun struct {
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// CPUUSPerOp is the service's CPU time during the heavy phase divided
	// by the operations the client sent in it. It and SetupS are scaled
	// to the reference host (probe.go).
	CPUUSPerOp float64                `json:"cpu_us_per_op"`
	Phases     map[string]phaseResult `json:"phases"`
	MaxOKRate  float64                `json:"max_ok_rate"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Prom       map[string]float64     `json:"prom"`
	SnapBytes  float64                `json:"snapshot_bytes"`
	Access     []accessLine           `json:"-"`
	Failures   []string               `json:"failures,omitempty"`
}

// phaseProbes is how many probe bursts run before each set-up and
// between load phases, while the client sends nothing.
const phaseProbes = 4

// runServeOnce measures set-up over setupReps spawns (each drained and
// audited), then drives the last one through the load plan, scrapes
// /metrics, stops it with SIGTERM and audits the transcript.
func runServeOnce(spec serveSpec, seed uint64, bin, dir string, accessLog bool) (serveRun, error) {
	run := serveRun{Phases: map[string]phaseResult{}}
	var setups []float64
	var srv *server
	var p probes
	for i := 0; i < setupReps; i++ {
		p.run(phaseProbes / 2)
		s, d, err := startServer(bin, filepath.Join(dir, fmt.Sprintf("life%d", i)), accessLog)
		if err != nil {
			return run, err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			time.Sleep(signalSettle)
			code, _, err := s.stop()
			if err != nil {
				return run, err
			}
			run.Failures = append(run.Failures, auditTranscript(transcript{ExitCode: code, Stdout: s.stdout.String()})...)
			continue
		}
		srv = s
	}
	run.SetupS = median(setups) * p.wallScale()

	c := newClient(srv.base)
	defer c.http.CloseIdleConnections()
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	var tr transcript
	keyBase := 0
	drive := func(ph phase) phaseResult {
		p.run(phaseProbes)
		r := runPhase(c, rng, ph, keyBase, &tr)
		keyBase += ph.pairs
		run.Phases[ph.name] = r
		run.Attempted += r.Ops
		run.Failed += r.Failed
		return r
	}
	drive(spec.light)
	cpu0, err := srv.cpu()
	if err != nil {
		srv.kill()
		return run, err
	}
	heavy := drive(spec.heavy)
	cpu1, err := srv.cpu()
	if err != nil {
		srv.kill()
		return run, err
	}
	passing := true
	for _, rate := range spec.ladder {
		passing = passing && drive(phase{fmt.Sprintf("ladder-%g", rate), rate, spec.ladderPairs}).ok()
		if passing {
			run.MaxOKRate = rate
		}
	}

	if body, err := c.get("/metrics"); err != nil {
		run.Failures = append(run.Failures, "scrape /metrics: "+err.Error())
	} else {
		run.Prom = parseProm(body)
	}
	if fi, err := os.Stat(filepath.Join(srv.dir, "state.snap")); err == nil {
		run.SnapBytes = float64(fi.Size())
	}
	p.run(phaseProbes)
	code, peak, err := srv.stop()
	if err != nil {
		return run, err
	}
	run.PeakRSSMB = peak
	run.CPUUSPerOp = float64((cpu1 - cpu0).Microseconds()) / float64(heavy.Ops) * p.cpuScale()
	tr.ExitCode, tr.Stdout = code, srv.stdout.String()
	run.Failures = append(run.Failures, auditTranscript(tr)...)
	if accessLog {
		f, err := os.Open(filepath.Join(srv.dir, "access.jsonl"))
		if err != nil {
			return run, err
		}
		defer f.Close()
		if run.Access, err = readAccessLog(f); err != nil {
			return run, err
		}
		run.Failures = append(run.Failures, reconcileStages(run.Access)...)
	}
	return run, nil
}

// parseProm reads the unlabelled and quantile-labelled samples of a
// Prometheus text exposition into name{labels} -> value.
func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// serveResult is what one serve part reports to the orchestrator: the
// untraced service lifetime and, when traced, the per-layer metrics.
type serveResult struct {
	serveRun
	Layers map[string]float64 `json:"layers,omitempty"`
}

// runServe runs the service part: one untraced service lifetime for the
// end-to-end numbers and, when traced, a second one with the access log
// on, read for the per-stage numbers.
func runServe(seed uint64, bin, dir string, traced bool) (serveResult, error) {
	plain, err := runServeOnce(servePlan, seed, bin, dir+"/plain", false)
	if err != nil {
		return serveResult{}, err
	}
	res := serveResult{serveRun: plain}
	if !traced {
		return res, nil
	}
	tr, err := runServeOnce(servePlan, seed, bin, dir+"/traced", true)
	if err != nil {
		return res, err
	}
	res.Attempted += tr.Attempted
	res.Failed += tr.Failed
	res.Failures = append(res.Failures, tr.Failures...)
	res.Layers = serveLayers(plain, tr)
	return res, nil
}

// serveLayers derives the serve.* and bench.* per-layer metrics. Stage
// and server times come from the traced run's access log, restricted to
// the heavy phase; counters, the snapshot and the client-side figures
// come from the untraced run.
func serveLayers(plain, tr serveRun) map[string]float64 {
	var placed, replayed, released []accessLine
	for _, l := range tr.Access {
		if !strings.HasPrefix(l.RequestID, "heavy-") {
			continue
		}
		switch {
		case l.Route == "/v1/place" && l.Outcome == "placed":
			placed = append(placed, l)
		case l.Route == "/v1/place" && l.Outcome == "replayed":
			replayed = append(replayed, l)
		case l.Route == "/v1/release" && l.Outcome == "released":
			released = append(released, l)
		}
	}
	totals := func(ls []accessLine) []float64 {
		var out []float64
		for _, l := range ls {
			out = append(out, l.TotalMS)
		}
		return out
	}
	L := map[string]float64{}
	for _, s := range stageNames {
		var xs []float64
		for _, l := range placed {
			xs = append(xs, l.StagesMS[s])
		}
		L["serve."+s+"_p50_ms"] = quantile(xs, 0.5)
		L["serve."+s+"_p90_ms"] = quantile(xs, 0.9)
	}
	heavy, trHeavy := plain.Phases["heavy"], tr.Phases["heavy"]
	L["serve.server_p50_ms"] = median(totals(placed))
	L["serve.transport_p50_ms"] = median(transportMS(placed, trHeavy.placeMS))
	L["serve.replay_server_p50_ms"] = median(totals(replayed))
	L["serve.release_server_p50_ms"] = median(totals(released))
	L["serve.snapshots"] = plain.Prom["serve_snapshots_total"]
	L["serve.snapshot_bytes"] = plain.SnapBytes
	L["serve.ladder_steps"] = plain.Prom["serve_ladder_steps_total"]
	L["serve.shed"] = plain.Prom["serve_shed_total"]
	L["serve.rejects"] = plain.Prom["serve_rejects_total"]
	L["serve.queue_wait_p99_ms"] = 1000 * plain.Prom[`serve_queue_wait_seconds{quantile="0.99"}`]
	L["serve.place_p99_ms"] = heavy.PlaceP99
	L["bench.gen_late_p90_ms"] = heavy.LateP90
	L["bench.achieved_over_offered"] = ratio(heavy.Achieved, heavy.Offered)
	L["bench.trace_overhead_pct"] = 100 * (trHeavy.PlaceP50 - heavy.PlaceP50) / heavy.PlaceP50
	return L
}
