package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// stageNames are the service's pipeline stages as its access log names
// them, in request order.
var stageNames = []string{"decode", "ratelimit", "idempotency", "queue", "search", "journal", "ack"}

// accessLine is the part of a pacevm-serve -access-log record the
// benchmark reads.
type accessLine struct {
	RequestID string             `json:"request_id"`
	Route     string             `json:"route"`
	Status    int                `json:"status"`
	Outcome   string             `json:"outcome"`
	TotalMS   float64            `json:"total_ms"`
	StagesMS  map[string]float64 `json:"stages_ms"`
}

func readAccessLog(r io.Reader) ([]accessLine, error) {
	var out []accessLine
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var l accessLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("access log line %d: %w", n, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// stageSlackMS absorbs float rounding when stage times are summed.
const stageSlackMS = 1e-6

// reconcileStages checks that no request's stages add up to more than
// its total: the stages are disjoint parts of one request, so a larger
// sum means a stage is timed twice or outside the request.
func reconcileStages(lines []accessLine) []string {
	var bad []string
	for _, l := range lines {
		sum := 0.0
		for _, s := range stageNames {
			sum += l.StagesMS[s]
		}
		if sum > l.TotalMS+stageSlackMS {
			bad = append(bad, fmt.Sprintf("request %s: stages sum to %.6f ms, total is %.6f ms", l.RequestID, sum, l.TotalMS))
		}
	}
	return bad
}

// transportMS pairs each log line with the client's latency for the
// same request ID and returns client minus server: the time a request
// spent outside the service's pipeline (client queueing, transport,
// HTTP framing). Lines without a client measurement are skipped.
func transportMS(lines []accessLine, clientMS map[string]float64) []float64 {
	var out []float64
	for _, l := range lines {
		if c, ok := clientMS[l.RequestID]; ok {
			out = append(out, c-l.TotalMS)
		}
	}
	return out
}
