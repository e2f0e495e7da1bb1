// Package swf reads and writes the Standard Workload Format (SWF) of the
// Parallel Workloads Archive [24], the interchange format the paper
// converts the Grid Observatory EGEE traces into before cleaning and
// simulation (Sect. IV.B).
//
// An SWF file is a sequence of header directives — comment lines of the
// form "; Key: Value" — followed by one line per job with 18
// whitespace-separated numeric fields. Unknown values are -1. This
// package implements the v2.x field list and the cleaning pass the paper
// applies: "we cleaned the trace … to eliminate failed jobs, cancelled
// jobs and anomalies".
package swf

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Status values defined by the SWF specification that the trace
// pipeline reads (2 and 3 mark the parts of a checkpointed job).
const (
	StatusFailed    = 0
	StatusCompleted = 1
	StatusCancelled = 5
)

// Job is one SWF record. Field names and order follow the v2.2
// specification; times are in seconds from the trace origin, -1 means
// unknown.
type Job struct {
	JobNumber     int
	SubmitTime    int64
	WaitTime      int64
	RunTime       int64
	AllocatedProc int
	AvgCPUTime    float64
	UsedMemory    float64
	ReqProc       int
	ReqTime       int64
	ReqMemory     float64
	Status        int
	UserID        int
	GroupID       int
	ExecutableID  int
	QueueNumber   int
	PartitionNum  int
	PrecedingJob  int
	ThinkTime     int64
}

// NumFields is the SWF v2.x record arity.
const NumFields = 18

// Trace is a parsed SWF file: header directives in encounter order plus
// the job records.
type Trace struct {
	// Header holds "; Key: Value" directives. Keys keep their original
	// capitalization; duplicate keys keep the last value.
	Header map[string]string
	// HeaderOrder preserves directive order for faithful re-emission.
	HeaderOrder []string
	Jobs        []Job
}

// Parse reads an SWF stream. Malformed job lines produce an error naming
// the line number; unparsable directives are kept as raw comments and
// ignored.
func Parse(r io.Reader) (*Trace, error) {
	tr := &Trace{Header: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ";") {
			key, val, ok := strings.Cut(strings.TrimSpace(line[1:]), ":")
			if ok {
				key = strings.TrimSpace(key)
				val = strings.TrimSpace(val)
				if key != "" {
					if _, dup := tr.Header[key]; !dup {
						tr.HeaderOrder = append(tr.HeaderOrder, key)
					}
					tr.Header[key] = val
				}
			}
			continue
		}
		job, err := parseJobLine(line)
		if err != nil {
			return nil, fmt.Errorf("swf: line %d: %w", lineNo, err)
		}
		tr.Jobs = append(tr.Jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("swf: reading: %w", err)
	}
	return tr, nil
}

func parseJobLine(line string) (Job, error) {
	fields := strings.Fields(line)
	if len(fields) != NumFields {
		return Job{}, fmt.Errorf("record has %d fields, want %d", len(fields), NumFields)
	}
	ints := make([]int64, NumFields)
	floats := make([]float64, NumFields)
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return Job{}, fmt.Errorf("field %d %q: %w", i+1, f, err)
		}
		floats[i] = v
		ints[i] = int64(v)
	}
	return Job{
		JobNumber:     int(ints[0]),
		SubmitTime:    ints[1],
		WaitTime:      ints[2],
		RunTime:       ints[3],
		AllocatedProc: int(ints[4]),
		AvgCPUTime:    floats[5],
		UsedMemory:    floats[6],
		ReqProc:       int(ints[7]),
		ReqTime:       ints[8],
		ReqMemory:     floats[9],
		Status:        int(ints[10]),
		UserID:        int(ints[11]),
		GroupID:       int(ints[12]),
		ExecutableID:  int(ints[13]),
		QueueNumber:   int(ints[14]),
		PartitionNum:  int(ints[15]),
		PrecedingJob:  int(ints[16]),
		ThinkTime:     ints[17],
	}, nil
}

// Write emits the trace in SWF text form.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for _, key := range tr.HeaderOrder {
		if _, err := fmt.Fprintf(bw, "; %s: %s\n", key, tr.Header[key]); err != nil {
			return fmt.Errorf("swf: writing header: %w", err)
		}
	}
	for _, j := range tr.Jobs {
		_, err := fmt.Fprintf(bw, "%d %d %d %d %d %s %s %d %d %s %d %d %d %d %d %d %d %d\n",
			j.JobNumber, j.SubmitTime, j.WaitTime, j.RunTime, j.AllocatedProc,
			fmtFloat(j.AvgCPUTime), fmtFloat(j.UsedMemory),
			j.ReqProc, j.ReqTime, fmtFloat(j.ReqMemory),
			j.Status, j.UserID, j.GroupID, j.ExecutableID,
			j.QueueNumber, j.PartitionNum, j.PrecedingJob, j.ThinkTime)
		if err != nil {
			return fmt.Errorf("swf: writing job %d: %w", j.JobNumber, err)
		}
	}
	return bw.Flush()
}

func fmtFloat(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Merge combines several traces into one, as the paper does with the
// multi-file Grid Observatory logs ("as they are usually composed of
// multiple files we combined them into a single file"). Jobs are
// re-sorted by submit time, stably (equal submit times keep trace order,
// then file order), and renumbered from 1; headers are taken from the
// first trace. The input traces are left unmodified.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{Header: map[string]string{}}
	n := 0
	for _, tr := range traces {
		n += len(tr.Jobs)
	}
	if len(traces) > 0 {
		out.HeaderOrder = slices.Clone(traces[0].HeaderOrder)
		for _, k := range out.HeaderOrder {
			out.Header[k] = traces[0].Header[k]
		}
	}
	// Sort 16-byte (submit time, position) keys instead of the 144-byte
	// records: the position tie-break makes an unstable O(n log n) sort
	// produce exactly the stable order, and each job is then copied once.
	keys := make([]mergeKey, 0, n)
	for t, tr := range traces {
		for i := range tr.Jobs {
			keys = append(keys, mergeKey{submit: tr.Jobs[i].SubmitTime, pos: uint64(t)<<32 | uint64(i)})
		}
	}
	slices.SortFunc(keys, func(a, b mergeKey) int {
		if a.submit != b.submit {
			return cmp.Compare(a.submit, b.submit)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out.Jobs = make([]Job, n)
	for i, k := range keys {
		out.Jobs[i] = traces[k.pos>>32].Jobs[uint32(k.pos)]
		out.Jobs[i].JobNumber = i + 1
	}
	return out
}

// mergeKey is one job's sort key in Merge: its submit time, then its
// position across the inputs (trace index in the high 32 bits, job
// index in the low 32).
type mergeKey struct {
	submit int64
	pos    uint64
}

// CleanReport summarizes what Clean removed.
type CleanReport struct {
	Input     int
	Failed    int
	Cancelled int
	Anomalous int
	Kept      int
}

// Clean applies the paper's preprocessing: failed jobs, cancelled jobs
// and anomalies are eliminated. Anomalies are records a simulator cannot
// replay meaningfully: non-positive runtimes, negative submit times,
// non-positive processor counts, or runtimes wildly exceeding the
// requested limit (> 10× a positive request).
func Clean(tr *Trace) (*Trace, CleanReport) {
	rep := CleanReport{Input: len(tr.Jobs)}
	out := &Trace{Header: tr.Header, HeaderOrder: tr.HeaderOrder, Jobs: make([]Job, 0, len(tr.Jobs))}
	for _, j := range tr.Jobs {
		switch {
		case j.Status == StatusFailed:
			rep.Failed++
		case j.Status == StatusCancelled:
			rep.Cancelled++
		case j.RunTime <= 0 || j.SubmitTime < 0 || procCount(j) <= 0 ||
			(j.ReqTime > 0 && j.RunTime > 10*j.ReqTime):
			rep.Anomalous++
		default:
			out.Jobs = append(out.Jobs, j)
		}
	}
	rep.Kept = len(out.Jobs)
	return out, rep
}

// procCount returns the best-known processor count of a job: the
// allocated count when recorded, otherwise the requested count.
func procCount(j Job) int {
	if j.AllocatedProc > 0 {
		return j.AllocatedProc
	}
	return j.ReqProc
}

// ProcCount exposes procCount for downstream preprocessing.
func ProcCount(j Job) int { return procCount(j) }
