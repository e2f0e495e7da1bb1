package swf

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzParse checks that arbitrary input never panics the parser, and
// that anything it accepts survives a write/parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("")
	f.Add("; Version: 2.2\n")
	f.Add("1 0 5 600 2 -1 -1 2 1200 -1 1 3 1 7 1 1 -1 -1\n")
	f.Add("1 2 3\n")
	f.Add(strings.Repeat("9 ", 18) + "\n")
	f.Add("; broken header without colon\n\n  \n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("Write failed on accepted trace: %v", err)
		}
		back, err := Parse(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back.Jobs) != len(tr.Jobs) {
			t.Fatalf("round trip changed job count: %d vs %d", len(back.Jobs), len(tr.Jobs))
		}
		// Cleaning accepted input must never panic either.
		_, rep := Clean(tr)
		if rep.Kept+rep.Failed+rep.Cancelled+rep.Anomalous != rep.Input {
			t.Fatalf("clean report does not add up: %+v", rep)
		}
	})
}

// mergeOracle is the reference for Merge's job order: concatenate the
// traces, sort.SliceStable the copy by submit time, then renumber.
func mergeOracle(traces ...*Trace) []Job {
	var jobs []Job
	for _, tr := range traces {
		jobs = append(jobs, tr.Jobs...)
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].SubmitTime < jobs[j].SubmitTime })
	for i := range jobs {
		jobs[i].JobNumber = i + 1
	}
	return jobs
}

// cloneTraces deep-copies traces so a test can check Merge left its
// inputs alone.
func cloneTraces(traces []*Trace) []*Trace {
	out := make([]*Trace, len(traces))
	for i, tr := range traces {
		out[i] = &Trace{Header: maps.Clone(tr.Header), HeaderOrder: slices.Clone(tr.HeaderOrder), Jobs: slices.Clone(tr.Jobs)}
	}
	return out
}

// FuzzMerge checks Merge record for record against the stable-sort
// oracle. Each input byte pair becomes one job: the first byte picks
// its trace, the second its submit time from a range of eight, so equal
// submit times within and across traces are the common case. Every job
// carries a distinct UserID, so any reordering among ties shows.
func FuzzMerge(f *testing.F) {
	f.Add(uint8(1), []byte{0, 3, 0, 3, 0, 1})
	f.Add(uint8(2), []byte{0, 5, 1, 5, 0, 5, 1, 2})
	f.Add(uint8(4), []byte{3, 0, 2, 0, 1, 0, 0, 0, 3, 7, 2, 6})
	f.Add(uint8(3), []byte{})
	// Past the sort's small-input insertion-sort cutoff, where an
	// unstable sort really reorders ties.
	long := make([]byte, 400)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(uint8(2), long)
	f.Fuzz(func(t *testing.T, ntraces uint8, data []byte) {
		traces := make([]*Trace, 1+int(ntraces)%4)
		for i := range traces {
			traces[i] = &Trace{Header: map[string]string{}}
		}
		traces[0].Header["Version"] = "2.2"
		traces[0].HeaderOrder = []string{"Version"}
		for k := 0; k+1 < len(data); k += 2 {
			tr := traces[int(data[k])%len(traces)]
			tr.Jobs = append(tr.Jobs, Job{
				JobNumber:  len(tr.Jobs) + 1,
				SubmitTime: int64(data[k+1] % 8),
				RunTime:    int64(data[k]),
				UserID:     k / 2,
			})
		}
		before := cloneTraces(traces)
		got := Merge(traces...)
		if want := mergeOracle(before...); !slices.Equal(got.Jobs, want) {
			t.Fatalf("Merge differs from the stable-sort oracle:\ngot  %+v\nwant %+v", got.Jobs, want)
		}
		if !reflect.DeepEqual(traces, before) {
			t.Fatal("Merge modified its input traces")
		}
		if !slices.Equal(got.HeaderOrder, []string{"Version"}) || got.Header["Version"] != "2.2" {
			t.Fatalf("headers = %v %v, want the first trace's", got.HeaderOrder, got.Header)
		}
	})
}
