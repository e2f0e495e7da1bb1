package main

import (
	"fmt"
	"slices"
	"strings"
)

// Operation kinds the serve-durable client sends.
const (
	opPlace   = "place"
	opReplay  = "replay"
	opRelease = "release"
)

// exchange is one request and its response, as the client saw them.
type exchange struct {
	Op       string
	Key      string
	Status   int
	Servers  []int
	VMIDs    []int
	Replayed bool
}

// transcript is everything the client saw of one service lifetime.
type transcript struct {
	Exchanges []exchange
	// ExitCode and Stdout are the service's after SIGTERM.
	ExitCode int
	Stdout   string
}

// auditTranscript checks the service's answers for consistency and
// returns one line per problem found:
//   - VM IDs are unique across all fresh acknowledgements;
//   - every replay returns the original ack's servers and vm_ids;
//   - every release of an acknowledged key returns 200;
//   - SIGTERM ends in exit 0 with "drained clean".
//
// A place or release refused by the service is a failed operation, not
// an audit problem; a key whose place failed has nothing to compare.
func auditTranscript(t transcript) []string {
	var bad []string
	acks := map[string]exchange{}
	owner := map[int]string{}
	for _, e := range t.Exchanges {
		if e.Op != opPlace || e.Status != 200 {
			continue
		}
		if e.Replayed {
			bad = append(bad, fmt.Sprintf("fresh key %s answered as a replay", e.Key))
		}
		if _, dup := acks[e.Key]; dup {
			bad = append(bad, fmt.Sprintf("key %s acknowledged twice", e.Key))
		}
		acks[e.Key] = e
		for _, id := range e.VMIDs {
			if prev, dup := owner[id]; dup {
				bad = append(bad, fmt.Sprintf("VM id %d given to both %s and %s", id, prev, e.Key))
			}
			owner[id] = e.Key
		}
	}
	for _, e := range t.Exchanges {
		orig, acked := acks[e.Key]
		if !acked {
			continue
		}
		switch e.Op {
		case opReplay:
			if e.Status != 200 || !e.Replayed || !slices.Equal(e.Servers, orig.Servers) || !slices.Equal(e.VMIDs, orig.VMIDs) {
				bad = append(bad, fmt.Sprintf("replay of %s: status %d replayed=%v servers %v vm_ids %v, ack had servers %v vm_ids %v",
					e.Key, e.Status, e.Replayed, e.Servers, e.VMIDs, orig.Servers, orig.VMIDs))
			}
		case opRelease:
			if e.Status != 200 {
				bad = append(bad, fmt.Sprintf("release of acknowledged key %s: status %d", e.Key, e.Status))
			}
		}
	}
	if t.ExitCode != 0 || !strings.Contains(t.Stdout, "drained clean") {
		bad = append(bad, fmt.Sprintf("shutdown: exit %d, drained clean not reported", t.ExitCode))
	}
	return bad
}
