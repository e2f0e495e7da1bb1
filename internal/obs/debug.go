package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// ManifestSchemaVersion is the current run-manifest schema. Version 2
// added schema_version itself, the artifacts map, and the quantile
// section of the telemetry snapshot.
const ManifestSchemaVersion = 2

// Manifest is the JSON run-manifest emitted beside a trace: everything
// needed to reproduce and interpret the run — the command and its
// configuration, the seed, the final metrics, the wall-clock cost, a
// snapshot of the telemetry registry, and the paths of every sibling
// artifact the run produced (trace timeline, VM audit CSV, fleet series
// CSV, ...), so one manifest fully describes a run's outputs.
type Manifest struct {
	SchemaVersion    int               `json:"schema_version"`
	Command          string            `json:"command"`
	Config           any               `json:"config,omitempty"`
	Seed             uint64            `json:"seed"`
	WallClockSeconds float64           `json:"wall_clock_seconds"`
	Metrics          any               `json:"metrics,omitempty"`
	Artifacts        map[string]string `json:"artifacts,omitempty"`
	Telemetry        Snapshot          `json:"telemetry"`
}

// WriteManifest serializes m as indented JSON (map keys sorted, so
// manifests of identical runs diff byte-identically), stamping the
// current schema version when the caller left it zero.
func WriteManifest(w io.Writer, m Manifest) error {
	if m.SchemaVersion == 0 {
		m.SchemaVersion = ManifestSchemaVersion
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// DebugServer is a live-introspection HTTP server: /debug/pprof/* (the
// full net/http/pprof suite), /debug/vars (expvar, including any
// registries published with Registry.Publish), /debug/dash (the live
// HTML dashboard over the served registry and any series added with
// AddSeries), /metrics (the Prometheus exposition of the same
// registry), and /debug/slow (the wall tracer's worst-K slow-request
// dump, when one is attached). It backs the CLIs' shared -debug-addr
// flag.
type DebugServer struct {
	srv *http.Server
	lis net.Listener
	reg *Registry

	mu        sync.Mutex
	series    []SeriesFunc
	watchdogs []*Watchdog
	wall      *WallTracer
	slo       *SLOTracker
}

// ServeDebug publishes reg under the "pacevm" expvar name (when
// non-nil), binds addr (":0" picks a free port), and serves in a
// background goroutine until Close.
func ServeDebug(addr string, reg *Registry) (*DebugServer, error) {
	reg.Publish("pacevm")
	d := &DebugServer{reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/dash", d.handleDash)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/debug/slow", d.handleSlow)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	d.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d.lis = lis
	go d.srv.Serve(lis) //nolint:errcheck // ErrServerClosed after Close
	return d, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.lis.Addr().String() }

// Close stops the server.
func (d *DebugServer) Close() error { return d.srv.Close() }

// AddWallTracer attaches a wall-clock request tracer: /debug/slow dumps
// its worst-K ring. Safe to call while serving; nil is ignored.
func (d *DebugServer) AddWallTracer(w *WallTracer) {
	if d == nil || w == nil {
		return
	}
	d.mu.Lock()
	d.wall = w
	d.mu.Unlock()
}

// AddSLO attaches a rolling SLO tracker: /metrics appends its burn-rate
// families and /debug/dash grows an SLO panel. Safe to call while
// serving; nil is ignored.
func (d *DebugServer) AddSLO(s *SLOTracker) {
	if d == nil || s == nil {
		return
	}
	d.mu.Lock()
	d.slo = s
	d.mu.Unlock()
}

// handleMetrics renders the registry snapshot (plus the SLO tracker's
// families, when attached) in the Prometheus text format.
func (d *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap Snapshot
	if d.reg != nil {
		snap = d.reg.Snapshot()
	}
	d.mu.Lock()
	slo := d.slo
	d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, snap, nil); err != nil {
		return
	}
	slo.WriteProm(w) //nolint:errcheck // client went away mid-scrape
}

// handleSlow dumps the attached wall tracer's slow-request ring as
// JSON (an empty array when no tracer is attached).
func (d *DebugServer) handleSlow(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	wall := d.wall
	d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	wall.DumpJSON(w) //nolint:errcheck // client went away mid-dump
}
