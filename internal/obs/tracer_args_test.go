package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// TestTypedArgsMatchMapEncoding pins SeriesSample's hand encoding to
// encoding/json's rendering of the equivalent one-entry map across the
// float formatting regimes (fixed vs exponent notation, the 1e-6/1e21
// switchover, negative zero, subnormals) and the string escaping rules
// (HTML escaping, control bytes and the \b and \f short escapes,
// invalid UTF-8, U+2028/U+2029).
func TestTypedArgsMatchMapEncoding(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 30, -17.25,
		1e-6, 9.999999e-7, -3.5e-9, 1e20, 1e21, -2.5e22,
		1.7976931348623157e308, 5e-324,
	}
	series := []string{
		"depth", "a<b>&c", `q"uote\`, "ctl\x01\x1f", "tab\tnl\nret\r",
		"ls\u2028ps\u2029", "bad\xffutf8", "é✓", "a\bb", "a\fb",
	}
	for _, s := range series {
		for _, v := range values {
			got, err := json.Marshal(SeriesSample{Series: s, Value: v})
			if err != nil {
				t.Fatalf("marshal SeriesSample{%q, %v}: %v", s, v, err)
			}
			want, err := json.Marshal(map[string]any{s: v})
			if err != nil {
				t.Fatalf("marshal map{%q: %v}: %v", s, v, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("SeriesSample{%q, %v} = %s, map encodes %s", s, v, got, want)
			}
		}
	}

	// The indented-encoder path WriteTo uses must agree too: a counter
	// emitted through the typed payload against the same event carrying
	// the historical map args.
	typed, legacy := NewTracer(), NewTracer()
	typed.Counter("queue", 2, 0, 12.5, "depth", 30)
	legacy.Emit(TraceEvent{Name: "queue", Phase: PhaseCounter, Ts: usec(12.5), Pid: 2, Tid: 0,
		Args: map[string]any{"depth": float64(30)}})
	var a, b bytes.Buffer
	if err := typed.WriteTo(&a, nil); err != nil {
		t.Fatal(err)
	}
	if err := legacy.WriteTo(&b, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("typed counter trace differs from map-args trace:\n%s\nvs\n%s", a.Bytes(), b.Bytes())
	}
}
