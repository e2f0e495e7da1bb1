package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
)

// Tracer records a run timeline in the Chrome trace-event JSON format
// (the catapult/Perfetto "JSON Array Format" with the object envelope),
// with timestamps in *simulated* microseconds — the simulator passes
// virtual seconds and the recorder scales them, so a loaded trace shows
// the run over simulation time, not wall time.
//
// A nil *Tracer is a no-op on every method, so tracing disabled costs a
// nil check per call site and nothing else. An enabled Tracer buffers
// events in memory (it is scoped to one run) and is safe for concurrent
// emitters.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// Trace-event phase constants (the ph field).
const (
	PhaseComplete   = "X" // span with ts+dur
	PhaseInstant    = "i" // point event
	PhaseCounter    = "C" // counter track sample
	PhaseMetadata   = "M" // process/thread naming
	PhaseFlowStart  = "s" // arrow tail
	PhaseFlowFinish = "f" // arrow head
)

// TraceEvent is one entry of the traceEvents array. Fields follow the
// Chrome trace-event format; Ts and Dur are microseconds.
//
// Args is any JSON-serializable value. Hot emitters pass a small typed
// struct instead of a map[string]any — a struct whose exported fields
// are tagged in ascending key order serializes byte-identically to the
// equivalent map (encoding/json sorts map keys) while costing one
// interface allocation instead of a map plus one boxing allocation per
// entry. Decoding (ReadTraceFile) always yields map[string]any, so
// readers are unaffected.
type TraceEvent struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Phase string  `json:"ph"`
	Ts    float64 `json:"ts"`
	Dur   float64 `json:"dur,omitempty"`
	Pid   int     `json:"pid"`
	Tid   int     `json:"tid"`
	ID    int     `json:"id,omitempty"`
	Scope string  `json:"s,omitempty"`  // instant scope ("t" = thread)
	BindP string  `json:"bp,omitempty"` // flow binding ("e" = enclosing slice)
	Args  any     `json:"args,omitempty"`
}

// TraceFile is the emitted JSON document: the trace-event envelope plus
// a free-form metadata object (the run manifest rides there so one file
// is both Perfetto-loadable and self-describing).
type TraceFile struct {
	TraceEvents     []TraceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit,omitempty"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// NewTracer returns an empty recorder.
func NewTracer() *Tracer { return &Tracer{} }

// Emit appends a raw event.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// usec converts simulated seconds to trace microseconds.
func usec(sec float64) float64 { return sec * 1e6 }

// Span records a complete slice on (pid, tid) from start to end, both
// in simulated seconds. args may be nil, a map, or a typed struct (see
// TraceEvent.Args).
func (t *Tracer) Span(name, cat string, pid, tid int, start, end float64, args any) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: name, Cat: cat, Phase: PhaseComplete, Ts: usec(start), Dur: usec(end - start), Pid: pid, Tid: tid, Args: args})
}

// Instant records a point event at ts simulated seconds.
func (t *Tracer) Instant(name, cat string, pid, tid int, ts float64, args any) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: name, Cat: cat, Phase: PhaseInstant, Scope: "t", Ts: usec(ts), Pid: pid, Tid: tid, Args: args})
}

// Counter samples a counter track: series name -> value at ts simulated
// seconds.
func (t *Tracer) Counter(name string, pid, tid int, ts float64, series string, value float64) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: name, Phase: PhaseCounter, Ts: usec(ts), Pid: pid, Tid: tid, Args: SeriesSample{Series: series, Value: value}})
}

// SeriesSample is the args payload of a counter event: one series name
// mapped to one value. It hand-encodes the {"<series>":<value>} object
// so the hottest periodic emitter (the simulator's queue-depth track)
// skips the per-sample map and boxing allocations; the encoding matches
// what encoding/json produces for the equivalent map[string]any byte
// for byte (pinned by TestTypedArgsMatchMapEncoding).
type SeriesSample struct {
	Series string
	Value  float64
}

// MarshalJSON implements json.Marshaler. A non-finite value encodes as
// null (encoding/json errors instead, but a counter sample must never
// abort a trace flush).
func (s SeriesSample) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, len(s.Series)+27)
	b = append(AppendJSONString(append(b, '{'), s.Series), ':')
	if math.IsInf(s.Value, 0) || math.IsNaN(s.Value) {
		b = append(b, "null"...)
	} else {
		b = AppendJSONFloat(b, s.Value)
	}
	return append(b, '}'), nil
}

// FlowStart/FlowFinish draw an arrow (id-matched, same name and cat)
// from one track's slice to another's — the VM lifecycle arrows from a
// job's arrival to each of its VM spans.
func (t *Tracer) FlowStart(name, cat string, id, pid, tid int, ts float64) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: name, Cat: cat, Phase: PhaseFlowStart, ID: id, Ts: usec(ts), Pid: pid, Tid: tid})
}

// FlowFinish is the arrow head; bp:"e" binds it to the enclosing slice.
func (t *Tracer) FlowFinish(name, cat string, id, pid, tid int, ts float64) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: name, Cat: cat, Phase: PhaseFlowFinish, BindP: "e", ID: id, Ts: usec(ts), Pid: pid, Tid: tid})
}

// NameProcess/NameThread emit the metadata events viewers use to label
// tracks.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: "process_name", Phase: PhaseMetadata, Pid: pid, Args: map[string]any{"name": name}})
}

// NameThread labels one thread (track) of a process.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.Emit(TraceEvent{Name: "thread_name", Phase: PhaseMetadata, Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
}

// Events returns a copy of the recorded events (nil on a nil tracer) —
// the export the sharded simulator's cross-shard timeline merge reads.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.events...)
}

// Len returns the number of recorded events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteTo serializes the trace as Chrome trace-event JSON. otherData
// (may be nil) is embedded verbatim as the envelope's metadata object.
// Writing a nil tracer emits a valid empty trace.
func (t *Tracer) WriteTo(w io.Writer, otherData map[string]any) error {
	f := TraceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms", OtherData: otherData}
	if t != nil {
		t.mu.Lock()
		f.TraceEvents = t.events
		defer t.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// ReadTraceFile parses a document WriteTo produced — the schema
// round-trip used by tests and downstream tooling.
func ReadTraceFile(r io.Reader) (TraceFile, error) {
	var f TraceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return TraceFile{}, err
	}
	return f, nil
}
