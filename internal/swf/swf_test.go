package swf

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const sample = `; Version: 2.2
; Computer: EGEE-like grid
; MaxJobs: 4
1 0 5 600 2 -1 -1 2 1200 -1 1 3 1 7 1 1 -1 -1
2 30 0 450 1 -1 -1 1 900 -1 1 4 1 7 1 1 -1 -1
3 60 -1 -1 1 -1 -1 1 900 -1 0 4 1 7 1 1 -1 -1
4 90 10 300 4 -1 -1 4 600 -1 5 2 1 8 1 1 -1 -1
`

func TestParseSample(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 4 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	if tr.Header["Version"] != "2.2" || tr.Header["MaxJobs"] != "4" {
		t.Errorf("header = %v", tr.Header)
	}
	if len(tr.HeaderOrder) != 3 || tr.HeaderOrder[0] != "Version" {
		t.Errorf("header order = %v", tr.HeaderOrder)
	}
	j := tr.Jobs[0]
	if j.JobNumber != 1 || j.SubmitTime != 0 || j.WaitTime != 5 || j.RunTime != 600 ||
		j.AllocatedProc != 2 || j.Status != StatusCompleted || j.UserID != 3 {
		t.Errorf("job 1 = %+v", j)
	}
	if tr.Jobs[2].Status != StatusFailed || tr.Jobs[3].Status != StatusCancelled {
		t.Error("status fields misparsed")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []string{
		"1 2 3\n",                       // too few fields
		strings.Repeat("1 ", 19) + "\n", // too many fields
		"1 0 5 x 2 -1 -1 2 1200 -1 1 3 1 7 1 1 -1 -1\n", // non-numeric
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse accepted %q", c)
		}
	}
}

func TestParseSkipsBlankAndComments(t *testing.T) {
	in := "\n; free-form comment without colon\n\n" + "1 0 0 10 1 -1 -1 1 20 -1 1 1 1 1 1 1 -1 -1\n"
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != len(tr.Jobs) {
		t.Fatalf("round trip lost jobs")
	}
	for i := range tr.Jobs {
		if back.Jobs[i] != tr.Jobs[i] {
			t.Errorf("job %d drifted: %+v vs %+v", i, back.Jobs[i], tr.Jobs[i])
		}
	}
	for k, v := range tr.Header {
		if back.Header[k] != v {
			t.Errorf("header %q drifted", k)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(submit uint32, run uint16, procs, status uint8) bool {
		j := Job{
			JobNumber:  1,
			SubmitTime: int64(submit),
			RunTime:    int64(run),
			ReqProc:    int(procs%16) + 1,
			Status:     int(status % 6),
			AvgCPUTime: -1, UsedMemory: -1, ReqMemory: -1,
			WaitTime: -1, ReqTime: -1, ThinkTime: -1,
			UserID: -1, GroupID: -1, ExecutableID: -1,
			QueueNumber: -1, PartitionNum: -1, PrecedingJob: -1,
			AllocatedProc: -1,
		}
		var buf bytes.Buffer
		if err := Write(&buf, &Trace{Jobs: []Job{j}}); err != nil {
			return false
		}
		back, err := Parse(&buf)
		if err != nil || len(back.Jobs) != 1 {
			return false
		}
		return back.Jobs[0] == j
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClean(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	clean, rep := Clean(tr)
	if rep.Input != 4 || rep.Failed != 1 || rep.Cancelled != 1 || rep.Kept != 2 {
		t.Errorf("report = %+v", rep)
	}
	for _, j := range clean.Jobs {
		if j.Status != StatusCompleted {
			t.Errorf("uncleaned job %+v", j)
		}
	}
}

func TestCleanAnomalies(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{JobNumber: 1, SubmitTime: 0, RunTime: 0, ReqProc: 1, Status: 1},                  // zero runtime
		{JobNumber: 2, SubmitTime: -5, RunTime: 100, ReqProc: 1, Status: 1},               // negative submit
		{JobNumber: 3, SubmitTime: 0, RunTime: 100, ReqProc: 0, Status: 1},                // no processors
		{JobNumber: 4, SubmitTime: 0, RunTime: 10000, ReqProc: 1, ReqTime: 10, Status: 1}, // runtime >> request
		{JobNumber: 5, SubmitTime: 0, RunTime: 100, ReqProc: 2, Status: 1},                // good
	}}
	clean, rep := Clean(tr)
	if rep.Anomalous != 4 || rep.Kept != 1 {
		t.Errorf("report = %+v", rep)
	}
	if len(clean.Jobs) != 1 || clean.Jobs[0].JobNumber != 5 {
		t.Errorf("kept = %+v", clean.Jobs)
	}
}

func TestSortJobs(t *testing.T) {
	jobs := []Job{
		{JobNumber: 10, SubmitTime: 300, RunTime: 1, ReqProc: 1, Status: 1},
		{JobNumber: 11, SubmitTime: 100, RunTime: 1, ReqProc: 1, Status: 1},
		{JobNumber: 1, SubmitTime: 200, RunTime: 1, ReqProc: 1, Status: 1},
	}
	SortJobs(jobs)
	wantSubmits := []int64{100, 200, 300}
	for i, j := range jobs {
		if j.SubmitTime != wantSubmits[i] {
			t.Errorf("job %d submit = %d, want %d", i, j.SubmitTime, wantSubmits[i])
		}
		if j.JobNumber != i+1 {
			t.Errorf("job %d renumbered to %d", i, j.JobNumber)
		}
	}
}

func TestSortJobsStableOnTies(t *testing.T) {
	jobs := []Job{
		{SubmitTime: 100, UserID: 1}, {SubmitTime: 50, UserID: 2},
		{SubmitTime: 100, UserID: 3}, {SubmitTime: 50, UserID: 4},
	}
	SortJobs(jobs)
	for i, want := range []int{2, 4, 1, 3} {
		if jobs[i].UserID != want {
			t.Fatalf("order = %+v, want users 2 4 1 3", jobs)
		}
	}
}

// TestSortJobsContract pins SortJobs' edge cases: nil and empty input,
// one job, equal submit times, the extremes of int64, renumbering, and
// that the caller's slice is the one sorted.
func TestSortJobsContract(t *testing.T) {
	t.Run("nil", func(t *testing.T) {
		SortJobs(nil)
	})
	t.Run("empty", func(t *testing.T) {
		jobs := make([]Job, 0, 1)
		SortJobs(jobs)
		if len(jobs) != 0 || jobs[:1][0] != (Job{}) {
			t.Errorf("jobs = %+v, want none and the spare capacity untouched", jobs[:1])
		}
	})
	t.Run("one job", func(t *testing.T) {
		jobs := []Job{{JobNumber: 7, SubmitTime: -3, UserID: 5}}
		SortJobs(jobs)
		if want := (Job{JobNumber: 1, SubmitTime: -3, UserID: 5}); jobs[0] != want {
			t.Errorf("job = %+v, want %+v", jobs[0], want)
		}
	})
	t.Run("all submit times equal", func(t *testing.T) {
		jobs := []Job{{JobNumber: 3, SubmitTime: 9, UserID: 1}, {JobNumber: 3, SubmitTime: 9, UserID: 2}}
		SortJobs(jobs)
		if jobs[0].UserID != 1 || jobs[1].UserID != 2 || jobs[0].JobNumber != 1 || jobs[1].JobNumber != 2 {
			t.Errorf("jobs = %+v, want input order renumbered 1, 2", jobs)
		}
	})
	t.Run("full int64 span", func(t *testing.T) {
		// The span overflows int64; offsets are taken in uint64.
		jobs := []Job{{SubmitTime: math.MaxInt64}, {SubmitTime: 0}, {SubmitTime: math.MinInt64}, {SubmitTime: -1}, {SubmitTime: math.MaxInt64 - 1}}
		SortJobs(jobs)
		want := []int64{math.MinInt64, -1, 0, math.MaxInt64 - 1, math.MaxInt64}
		for i, j := range jobs {
			if j.SubmitTime != want[i] {
				t.Fatalf("submits = %+v, want %v", jobs, want)
			}
		}
	})
	t.Run("renumbers from 1 in place", func(t *testing.T) {
		// Each input file numbers its own jobs from 1; the sorted trace
		// numbers them once, in sorted order. Sorting a window of a larger
		// array rearranges that window and nothing outside it.
		all := []Job{{UserID: 1}, {JobNumber: 1, SubmitTime: 50}, {JobNumber: 2, SubmitTime: 10}, {JobNumber: 1, SubmitTime: 30}, {JobNumber: 2, SubmitTime: 10}, {UserID: 2}}
		SortJobs(all[1:5])
		wantSubmits := []int64{10, 10, 30, 50}
		for i, j := range all[1:5] {
			if j.JobNumber != i+1 || j.SubmitTime != wantSubmits[i] {
				t.Errorf("job %d = #%d at %d, want #%d at %d", i, j.JobNumber, j.SubmitTime, i+1, wantSubmits[i])
			}
		}
		if all[0] != (Job{UserID: 1}) || all[5] != (Job{UserID: 2}) {
			t.Errorf("jobs outside the window changed: %+v %+v", all[0], all[5])
		}
	})
}

func TestProcCount(t *testing.T) {
	if got := ProcCount(&Job{AllocatedProc: 3, ReqProc: 8}); got != 3 {
		t.Errorf("ProcCount = %d, want allocated 3", got)
	}
	if got := ProcCount(&Job{AllocatedProc: -1, ReqProc: 8}); got != 8 {
		t.Errorf("ProcCount = %d, want requested 8", got)
	}
}
