package serve

// End-to-end request observability for the placement service: wall-clock
// span tracing over the request pipeline, per-stage and end-to-end
// latency histograms, rolling SLO attainment, and a structured JSONL
// access log. All of it hangs off one optional serveObs bundle — when no
// observability feature is configured the bundle is nil and the hot path
// pays a single pointer check per request (BenchmarkServe vs
// BenchmarkServeObs records the off/on pair).

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"pacevm/internal/cloudsim"
	"pacevm/internal/obs"
)

// The traced pipeline stages, in request order. decode covers JSON
// decode plus request validation; queue is the shard-queue wait
// measured by the worker; ack spans from the worker's reply to the
// response hitting the wire.
const (
	stageDecode = iota
	stageRateLimit
	stageIdempotency
	stageQueue
	stageSearch
	stageJournal
	stageAck
	numStages
)

// stageNames index by stage constant; they are also the histogram and
// access-log stage labels.
var stageNames = [numStages]string{
	"decode", "ratelimit", "idempotency", "queue", "search", "journal", "ack",
}

// stageBounds are the latency histogram bucket bounds, in seconds:
// 0.5ms to 10s, roughly 2.5x apart — wide enough for a journal fsync
// and a saturated queue alike.
var stageBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// serveObs bundles the request-observability state; nil when every
// feature is off.
type serveObs struct {
	wall      *obs.WallTracer
	slo       *obs.SLOTracker
	access    *accessLogger
	reg       *obs.Registry
	stageHist [numStages]*obs.Histogram
}

// obsEnabled reports whether the configuration asks for any request
// observability.
func (cfg Config) obsEnabled() bool {
	return cfg.SlowRing > 0 || cfg.SLOTarget > 0 || cfg.AccessLog != nil
}

func newServeObs(cfg Config, reg *obs.Registry, clock func() time.Time) (*serveObs, error) {
	ro := &serveObs{
		wall: obs.NewWallTracer(stageNames[:], cfg.SlowRing, clock),
		reg:  reg,
	}
	if cfg.SLOTarget > 0 {
		slo, err := obs.NewSLOTracker(cfg.SLOTarget, cfg.SLOObjective, cfg.SLOWindow, clock)
		if err != nil {
			return nil, err
		}
		ro.slo = slo
	}
	if cfg.AccessLog != nil {
		ro.access = &accessLogger{w: cfg.AccessLog, clock: clock}
	}
	for i, name := range stageNames {
		ro.stageHist[i] = reg.Histogram(obs.SeriesName("serve_stage_seconds", "stage", name), stageBounds...)
	}
	return ro, nil
}

// traceStart opens a request trace (nil, and free, when observability
// is off). id is the client's X-Request-Id, "" to generate one.
func (s *Service) traceStart(id string) *obs.ReqTrace {
	if s.ro == nil {
		return nil
	}
	return s.ro.wall.Start(id)
}

// WallTracer exposes the request tracer (nil when observability is
// off) — the debug server mounts its slow-request dump.
func (s *Service) WallTracer() *obs.WallTracer {
	if s.ro == nil {
		return nil
	}
	return s.ro.wall
}

// SLO exposes the rolling SLO tracker (nil when untracked).
func (s *Service) SLO() *obs.SLOTracker {
	if s.ro == nil {
		return nil
	}
	return s.ro.slo
}

// classifyOutcome maps a data-plane outcome to its metric label:
// placed, replayed, released, shed (admission-control drops the client
// should retry) or rejected (hard errors and capacity refusals).
func classifyOutcome(out Outcome) string {
	if out.Status == 200 && out.Resp != nil {
		switch {
		case out.Resp.Replayed:
			return "replayed"
		case out.Resp.Released:
			return "released"
		}
		return "placed"
	}
	switch out.Reason {
	case cloudsim.RejectShedding, cloudsim.RejectQueueFull, cloudsim.RejectRateLimit,
		cloudsim.RejectDeadline, cloudsim.RejectDraining:
		return "shed"
	}
	return "rejected"
}

// observeRequest seals a request trace and folds it into every enabled
// sink: the ack span closes, the per-stage and end-to-end histograms
// observe, the SLO window advances, and the access log gets its line.
// Called exactly once per traced request, after the response is
// written.
func (s *Service) observeRequest(rt *obs.ReqTrace, client, route string, out Outcome) {
	if s.ro == nil || rt == nil {
		return
	}
	rt.StageEnd(stageAck)
	outcome := classifyOutcome(out)
	level := ""
	if out.Resp != nil {
		level = out.Resp.Level
	}
	if level == "" {
		level = levelName(s.lad.current())
	}
	total := rt.Finish(outcome)

	for i := range stageNames {
		if d := rt.Dur(i); d > 0 {
			s.ro.stageHist[i].Observe(d.Seconds())
		}
	}
	s.ro.reg.Histogram(
		obs.SeriesName("serve_request_seconds", "outcome", outcome, "level", level),
		stageBounds...,
	).Observe(total.Seconds())
	s.ro.slo.Observe(total)
	s.ro.access.log(rt, client, route, outcome, level, total, out)
}

// accessLogger writes one structured JSONL record per request. The
// mutex serializes whole lines; the record is rendered outside it.
type accessLogger struct {
	clock func() time.Time
	mu    sync.Mutex
	w     io.Writer
}

// accessRecord is one access-log line. VM uids cross-link the line to
// journal records, decision logs and audit output for the same
// placement.
type accessRecord struct {
	TS        string             `json:"ts"`
	RequestID string             `json:"request_id"`
	Client    string             `json:"client"`
	Route     string             `json:"route"`
	Status    int                `json:"status"`
	Outcome   string             `json:"outcome"`
	Level     string             `json:"level"`
	Key       string             `json:"key,omitempty"`
	VMIDs     []int              `json:"vm_ids,omitempty"`
	Servers   []int              `json:"servers,omitempty"`
	Reason    string             `json:"reason,omitempty"`
	TotalMS   float64            `json:"total_ms"`
	StagesMS  map[string]float64 `json:"stages_ms"`
}

func (a *accessLogger) log(rt *obs.ReqTrace, client, route, outcome, level string, total time.Duration, out Outcome) {
	if a == nil {
		return
	}
	rec := accessRecord{
		TS:        a.clock().UTC().Format(time.RFC3339Nano),
		RequestID: rt.ID(),
		Client:    client,
		Route:     route,
		Status:    out.Status,
		Outcome:   outcome,
		Level:     level,
		Reason:    out.Reason,
		TotalMS:   float64(total) / float64(time.Millisecond),
		StagesMS:  make(map[string]float64, numStages),
	}
	if out.Resp != nil {
		rec.Key = out.Resp.Key
		rec.VMIDs = out.Resp.VMIDs
		rec.Servers = out.Resp.Servers
	}
	for i, name := range stageNames {
		rec.StagesMS[name] = float64(rt.Dur(i)) / float64(time.Millisecond)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	a.mu.Lock()
	a.w.Write(line) //nolint:errcheck // best-effort log sink
	a.mu.Unlock()
}

// servePromHelp is the HELP text for the serve metric families on
// /metrics.
var servePromHelp = map[string]string{
	"serve_requests_total":      "Data-plane requests received.",
	"serve_placements_total":    "Placements committed.",
	"serve_replays_total":       "Idempotent replays answered from memory.",
	"serve_releases_total":      "Placements released.",
	"serve_shed_total":          "Requests shed by admission control.",
	"serve_rejects_total":       "Requests rejected for capacity.",
	"serve_requeues_total":      "Crash-evicted VMs re-placed.",
	"serve_snapshots_total":     "State snapshots written.",
	"serve_crashes_total":       "Server crash events processed.",
	"serve_recovers_total":      "Server recover events processed.",
	"serve_degradation_level":   "Current degradation ladder level (0 full ... 2 shed).",
	"serve_queue_wait_seconds":  "Shard-queue wait at dequeue.",
	"serve_stage_seconds":       "Per-stage request pipeline latency.",
	"serve_request_seconds":     "End-to-end request latency by outcome and ladder level.",
	"serve_ladder_steps_total":  "Degradation ladder level changes.",
	"serve_watchdog_runs_total": "Invariant watchdog sweeps.",
}
