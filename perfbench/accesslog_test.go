package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func readFixture(t *testing.T) []accessLine {
	t.Helper()
	f, err := os.Open("testdata/access.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines, err := readAccessLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("read %d lines, want 4", len(lines))
	}
	return lines
}

// TestReconcileStages: heavy-2's stages sum to 0.2732 ms against a
// 0.2 ms total and must be the only line flagged.
func TestReconcileStages(t *testing.T) {
	bad := reconcileStages(readFixture(t))
	if len(bad) != 1 || !strings.Contains(bad[0], "heavy-2") {
		t.Fatalf("flagged %v, want exactly heavy-2", bad)
	}
}

func TestTransportIsClientMinusServer(t *testing.T) {
	got := transportMS(readFixture(t), map[string]float64{"heavy-0": 1.25, "heavy-3": 0.75, "light-9": 3})
	want := []float64{0.75, 0.5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestReadAccessLogRejectsGarbage(t *testing.T) {
	if _, err := readAccessLog(strings.NewReader("{\"request_id\":\"a\"}\nnot json\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want a line-2 parse error", err)
	}
}
