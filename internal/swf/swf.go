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
	"fmt"
	"io"
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

// SortJobs puts jobs in submit-time order in place, stably (equal submit
// times keep their input order), and renumbers them from 1: the
// canonical order of a trace the paper combines from its multi-file
// logs ("as they are usually composed of multiple files we combined them
// into a single file"). It radix-sorts 16-byte (submit offset, index)
// keys over the span of submit times, then moves each job once along the
// cycles of the resulting permutation, so it allocates only the keys and
// their radix scratch copy.
func SortJobs(jobs []Job) {
	if len(jobs) > 1 {
		lo, hi := jobs[0].SubmitTime, jobs[0].SubmitTime
		for i := range jobs {
			lo = min(lo, jobs[i].SubmitTime)
			hi = max(hi, jobs[i].SubmitTime)
		}
		// Offsets from the earliest submit time in uint64 arithmetic:
		// exact even when the span overflows int64.
		keys := make([]sortKey, len(jobs))
		for i := range jobs {
			keys[i] = sortKey{off: uint64(jobs[i].SubmitTime) - uint64(lo), idx: i}
		}
		if span := uint64(hi) - uint64(lo); span > 0 {
			keys = radixSort(keys, span)
		}
		permute(jobs, keys)
	}
	for i := range jobs {
		jobs[i].JobNumber = i + 1
	}
}

// permute moves the job at keys[i].idx to position i, for every i, each
// job once: every cycle of the permutation is walked once, and each
// visited slot is marked done by pointing it at itself.
func permute(jobs []Job, keys []sortKey) {
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		held := jobs[i]
		j := i
		for {
			k := keys[j].idx
			keys[j].idx = j
			if k == i {
				jobs[j] = held
				break
			}
			jobs[j] = jobs[k]
			j = k
		}
	}
}

// sortKey is one job's key in SortJobs: its submit time as an offset
// from the trace's earliest, and its input position.
type sortKey struct {
	off uint64
	idx int
}

// radixBits is the digit width of SortJobs' radix sort: 2,048 counters
// per pass, and two passes cover spans below 2^22 s (48 days).
const radixBits = 11

// radixSort sorts keys stably by off, whose values are at most span,
// with one least-significant-digit counting pass per radixBits of span.
// It returns the sorted slice, which is keys or its scratch copy.
func radixSort(keys []sortKey, span uint64) []sortKey {
	const mask = 1<<radixBits - 1
	tmp := make([]sortKey, len(keys))
	for shift := 0; shift < 64 && span>>shift != 0; shift += radixBits {
		var count [1 << radixBits]int
		for i := range keys {
			count[keys[i].off>>shift&mask]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for _, k := range keys {
			d := k.off >> shift & mask
			tmp[count[d]] = k
			count[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// CleanReport tallies the jobs of a trace by how Count classifies them.
type CleanReport struct {
	Input     int
	Failed    int
	Cancelled int
	Anomalous int
	Kept      int
}

// Count classifies one job by the paper's preprocessing — failed jobs,
// cancelled jobs and anomalies are eliminated — adds it to the report
// and says whether the job is kept. Anomalies are records a simulator
// cannot replay meaningfully: non-positive runtimes, negative submit
// times, non-positive processor counts, or runtimes wildly exceeding the
// requested limit (> 10× a positive request).
func (r *CleanReport) Count(j *Job) (keep bool) {
	r.Input++
	switch {
	case j.Status == StatusFailed:
		r.Failed++
	case j.Status == StatusCancelled:
		r.Cancelled++
	case j.RunTime <= 0 || j.SubmitTime < 0 || ProcCount(j) <= 0 ||
		(j.ReqTime > 0 && j.RunTime > 10*j.ReqTime):
		r.Anomalous++
	default:
		r.Kept++
		return true
	}
	return false
}

// Clean returns a trace of the jobs Count keeps, in order, sharing tr's
// header, and the report over all of tr.
func Clean(tr *Trace) (*Trace, CleanReport) {
	var rep CleanReport
	out := &Trace{Header: tr.Header, HeaderOrder: tr.HeaderOrder, Jobs: make([]Job, 0, len(tr.Jobs))}
	for i := range tr.Jobs {
		if rep.Count(&tr.Jobs[i]) {
			out.Jobs = append(out.Jobs, tr.Jobs[i])
		}
	}
	return out, rep
}

// ProcCount returns the best-known processor count of a job: the
// allocated count when recorded, otherwise the requested count.
func ProcCount(j *Job) int {
	if j.AllocatedProc > 0 {
		return j.AllocatedProc
	}
	return j.ReqProc
}
