package swf

import (
	"bytes"
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

// sortOracle is the reference for SortJobs: sort.SliceStable a copy by
// submit time, then renumber.
func sortOracle(in []Job) []Job {
	jobs := slices.Clone(in)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].SubmitTime < jobs[j].SubmitTime })
	for i := range jobs {
		jobs[i].JobNumber = i + 1
	}
	return jobs
}

// FuzzSortJobs checks SortJobs record for record against the stable-sort
// oracle. Each input byte becomes one job submitted at base plus the
// byte, read as a signed value, shifted left by shift bits: equal submit
// times are common, and a shift of 33 or more spans over 2^33 s, so four
// or more radix passes run (all six at the widest). Every job carries a
// distinct UserID, so any reordering among ties shows.
func FuzzSortJobs(f *testing.F) {
	f.Add(uint8(0), int64(0), []byte{3, 3, 1, 3, 1})
	f.Add(uint8(0), int64(-40), []byte{5, 0x85, 5, 2, 0x85, 0xff})
	f.Add(uint8(12), int64(0), []byte{0, 7, 0, 6, 0x80, 7})
	f.Add(uint8(34), int64(-1), []byte{1, 0xff, 1, 0x7f, 0, 0x80, 0xff})
	f.Add(uint8(56), int64(1)<<62, []byte{0x7f, 0x80, 0, 0x7f, 0x80})
	f.Add(uint8(3), int64(9), []byte{})
	long := make([]byte, 400)
	for i := range long {
		long[i] = byte(i*37) % 16
	}
	f.Add(uint8(20), int64(-7), long)
	f.Fuzz(func(t *testing.T, shift uint8, base int64, data []byte) {
		jobs := make([]Job, len(data))
		for k, b := range data {
			jobs[k] = Job{
				JobNumber:  len(data) - k,
				SubmitTime: base + int64(int8(b))<<(shift%64),
				RunTime:    int64(b),
				UserID:     k,
			}
		}
		want := sortOracle(jobs)
		SortJobs(jobs)
		if !slices.Equal(jobs, want) {
			t.Fatalf("SortJobs differs from the stable-sort oracle:\ngot  %+v\nwant %+v", jobs, want)
		}
	})
}
