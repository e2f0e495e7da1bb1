package serve

// The HTTP/JSON surface. Three data-plane endpoints and two
// introspection ones:
//
//	POST /v1/place    {key, class, vms, ...} -> placement (200) or
//	                  backpressure (429 + Retry-After) / no-capacity (503)
//	POST /v1/release  {key}                  -> freed placement (200)
//	GET  /v1/healthz  200 serving, 503 draining
//	GET  /v1/stats    ladder level, wait EWMA, queue depth, violations
//	POST /v1/chaos/crash | /v1/chaos/recover {server} — fault injection,
//	                  only when enabled
//
// Clients are identified for rate limiting by the X-Client-Id header,
// falling back to the remote host. Every 429/503 carries a Retry-After
// header (integer seconds, rounded up) sized from the actual cause:
// token-bucket deficit, request timeout, or the top ladder watermark.
// A POST body over 64 KiB is refused with 413.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"pacevm/internal/obs"
)

// PlaceRequest asks for one job's VMs. Key is the client-chosen
// idempotency key: retries with the same key replay the placement and
// can never double-place.
type PlaceRequest struct {
	Key   string `json:"key"`
	Job   int    `json:"job,omitempty"`
	Class string `json:"class"` // cpu | mem | io
	VMs   int    `json:"vms"`
	// NominalS is the job's nominal runtime (default 600s); MaxResponseS
	// is its QoS bound (0 = unconstrained), both feeding the PA search.
	NominalS     float64 `json:"nominal_s,omitempty"`
	MaxResponseS float64 `json:"max_response_s,omitempty"`
}

// PlaceResponse is a committed placement.
type PlaceResponse struct {
	Key      string  `json:"key"`
	Servers  []int   `json:"servers"`
	VMIDs    []int   `json:"vm_ids"`
	Level    string  `json:"level"`
	Degraded bool    `json:"degraded,omitempty"`
	Relaxed  bool    `json:"relaxed,omitempty"`
	WaitMS   float64 `json:"wait_ms"`
	Released bool    `json:"released,omitempty"`
	Replayed bool    `json:"replayed,omitempty"`
}

// Outcome is the service-level result of a data-plane call, mapped
// one-to-one onto the HTTP response.
type Outcome struct {
	Status     int
	Reason     string
	RetryAfter time.Duration
	Resp       *PlaceResponse
}

type errorBody struct {
	Error      string  `json:"error"`
	RetryAfter float64 `json:"retry_after_s,omitempty"`
}

// Handler returns the service's HTTP mux. chaos additionally exposes
// the crash/recover fault-injection endpoints. When request
// observability is configured the data-plane endpoints are traced: the
// request ID (the client's X-Request-Id, or a generated one) is echoed
// back in the X-Request-Id response header and keys the /debug/slow
// dump and the access log; /metrics and /debug/slow are always mounted
// (an untracked registry still renders).
func (s *Service) Handler(chaos bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", func(w http.ResponseWriter, r *http.Request) {
		rt := s.traceStart(r.Header.Get("X-Request-Id"))
		if rt != nil {
			w.Header().Set("X-Request-Id", rt.ID())
		}
		var req PlaceRequest
		rt.StageStart(stageDecode)
		err := decodeBody(w, r, &req)
		rt.StageEnd(stageDecode)
		if err != nil {
			out := badBody(err, "bad json: "+err.Error())
			writeOutcome(w, out)
			s.observeRequest(rt, clientID(r), "/v1/place", out)
			return
		}
		out := s.placeTraced(clientID(r), req, rt)
		writeOutcome(w, out)
		s.observeRequest(rt, clientID(r), "/v1/place", out)
	})
	mux.HandleFunc("POST /v1/release", func(w http.ResponseWriter, r *http.Request) {
		rt := s.traceStart(r.Header.Get("X-Request-Id"))
		if rt != nil {
			w.Header().Set("X-Request-Id", rt.ID())
		}
		var req struct {
			Key string `json:"key"`
		}
		rt.StageStart(stageDecode)
		err := decodeBody(w, r, &req)
		rt.StageEnd(stageDecode)
		if err != nil || req.Key == "" {
			out := badBody(err, "bad json: missing key")
			writeOutcome(w, out)
			s.observeRequest(rt, clientID(r), "/v1/release", out)
			return
		}
		out := s.Release(req.Key)
		writeOutcome(w, out)
		s.observeRequest(rt, clientID(r), "/v1/release", out)
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.WriteHeader(503)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Stats())
	})
	mux.HandleFunc("GET /metrics", s.metricsHTTP)
	mux.HandleFunc("GET /debug/slow", s.slowHTTP)
	if chaos {
		mux.HandleFunc("POST /v1/chaos/crash", s.chaosHandler(s.CrashServer))
		mux.HandleFunc("POST /v1/chaos/recover", s.chaosHandler(s.RecoverServer))
	}
	return mux
}

// ObsHandler is the observability-only mux — /metrics and /debug/slow
// without the data plane — for a dedicated metrics listener that can be
// firewalled separately from client traffic.
func (s *Service) ObsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.metricsHTTP)
	mux.HandleFunc("GET /debug/slow", s.slowHTTP)
	return mux
}

// metricsHTTP renders the service registry (plus the SLO tracker's
// families, when tracked) in the Prometheus text exposition format.
func (s *Service) metricsHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := obs.WritePrometheus(w, s.reg.Snapshot(), servePromHelp); err != nil {
		return
	}
	s.SLO().WriteProm(w) //nolint:errcheck // client went away mid-scrape
}

// slowHTTP dumps the worst-K slow-request ring as JSON (an empty array
// when tracing is off).
func (s *Service) slowHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.WallTracer().DumpJSON(w) //nolint:errcheck // client went away mid-dump
}

func (s *Service) chaosHandler(op func(int) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Server int `json:"server"`
		}
		if err := decodeBody(w, r, &req); err != nil {
			writeOutcome(w, badBody(err, "bad json: "+err.Error()))
			return
		}
		if err := op(req.Server); err != nil {
			writeOutcome(w, Outcome{Status: 400, Reason: err.Error()})
			return
		}
		w.WriteHeader(202)
	}
}

// maxBodyBytes caps a data-plane request body. Every valid request is
// far smaller; the cap keeps one oversized body from buffering without
// bound.
const maxBodyBytes = 64 << 10

// decodeBody decodes the JSON request body into v, reading at most
// maxBodyBytes of it.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
}

// badBody is the outcome for a request body decodeBody rejected (or
// that lacks a required field, with err nil): 413 past the size cap,
// otherwise 400 with reason.
func badBody(err error, reason string) Outcome {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return Outcome{Status: http.StatusRequestEntityTooLarge, Reason: fmt.Sprintf("request body over %d bytes", maxBodyBytes)}
	}
	return Outcome{Status: 400, Reason: reason}
}

// clientID identifies the caller for rate limiting.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// writeOutcome renders an Outcome: 200s carry the placement, errors a
// JSON body plus Retry-After when the client should back off and retry.
func writeOutcome(w http.ResponseWriter, out Outcome) {
	w.Header().Set("Content-Type", "application/json")
	if out.RetryAfter > 0 {
		secs := int((out.RetryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	w.WriteHeader(out.Status)
	if out.Resp != nil {
		_ = json.NewEncoder(w).Encode(out.Resp)
		return
	}
	_ = json.NewEncoder(w).Encode(errorBody{Error: out.Reason, RetryAfter: out.RetryAfter.Seconds()})
}
