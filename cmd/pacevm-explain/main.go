// Command pacevm-explain replays a placement decision flight-recorder
// log (pacevm-sim -decision-log) and answers "why is this VM where it
// is": the full decision chain of one VM across crashes and requeues,
// every decision about one job, or the coordinator's per-window shard
// routing in a sharded run.
//
//	pacevm-explain -log decisions.jsonl -vm 17
//	pacevm-explain -log decisions.jsonl -job 42
//	pacevm-explain -log decisions.jsonl -windows
//
// The chain view walks the requeue links both ways: backwards from the
// requested VM to the original submission (each synthetic requeue
// request carries the killed VM's uid), forwards through any later
// crashes to the attempt that finally completed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pacevm/internal/cloudsim"
)

type options struct {
	logPath string
	vm      int
	job     int
	windows bool
}

func main() {
	var opt options
	flag.StringVar(&opt.logPath, "log", "", "decision log (JSONL) written by pacevm-sim -decision-log")
	flag.IntVar(&opt.vm, "vm", -1, "reconstruct this VM uid's full decision chain")
	flag.IntVar(&opt.job, "job", -1, "print every decision about this job id")
	flag.BoolVar(&opt.windows, "windows", false, "summarize the coordinator's per-window shard routing")
	flag.Parse()

	if err := run(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pacevm-explain:", err)
		os.Exit(1)
	}
}

func run(opt options, w io.Writer) error {
	if opt.logPath == "" {
		return fmt.Errorf("-log is required")
	}
	modes := 0
	for _, on := range []bool{opt.vm >= 0, opt.job >= 0, opt.windows} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("pick exactly one of -vm, -job or -windows")
	}
	f, err := os.Open(opt.logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := cloudsim.ReadDecisionLog(f)
	if err != nil {
		return err
	}
	switch {
	case opt.vm >= 0:
		return explainVM(w, recs, opt.vm)
	case opt.job >= 0:
		return explainJob(w, recs, opt.job)
	default:
		return explainWindows(w, recs)
	}
}

// logIndex cross-references the flight log for chain walking.
type logIndex struct {
	byReq        map[int][]int // request idx -> record indices, log order
	placeByVM    map[int]int   // VM uid -> its place record
	requeueByVM  map[int]int   // killed VM uid -> the requeue record its crash produced
	requeueByReq map[int]int   // synthetic request idx -> the requeue record that created it
}

func buildIndex(recs []cloudsim.Decision) logIndex {
	ix := logIndex{
		byReq:        map[int][]int{},
		placeByVM:    map[int]int{},
		requeueByVM:  map[int]int{},
		requeueByReq: map[int]int{},
	}
	for i, d := range recs {
		if d.Req >= 0 {
			ix.byReq[d.Req] = append(ix.byReq[d.Req], i)
		}
		switch d.Kind {
		case cloudsim.DecisionPlace:
			for _, uid := range d.VMIDs {
				ix.placeByVM[uid] = i
			}
		case cloudsim.DecisionRequeue:
			ix.requeueByVM[d.VMID] = i
			ix.requeueByReq[d.Req] = i
		}
	}
	return ix
}

// explainVM prints the full decision chain of one VM uid: ancestors back
// to the original submission, then each attempt's decisions in order.
func explainVM(w io.Writer, recs []cloudsim.Decision, uid int) error {
	ix := buildIndex(recs)
	pi, ok := ix.placeByVM[uid]
	if !ok {
		return fmt.Errorf("vm %d not in the decision log (%d placements recorded)", uid, len(ix.placeByVM))
	}

	// Walk back through requeue links to the chain's first attempt.
	cur := uid
	for steps := 0; ; steps++ {
		if steps > len(recs) {
			return fmt.Errorf("requeue ancestry for vm %d does not terminate (corrupt log?)", uid)
		}
		ri, ok := ix.requeueByReq[recs[ix.placeByVM[cur]].Req]
		if !ok || recs[ri].VMID == cur {
			break
		}
		prev := recs[ri].VMID
		if _, ok := ix.placeByVM[prev]; !ok {
			break
		}
		cur = prev
	}

	job := recs[pi].Job
	fmt.Fprintf(w, "decision chain for VM %d (job %d):\n", uid, job)
	attempts := 0
	for {
		attempts++
		pl := recs[ix.placeByVM[cur]]
		fmt.Fprintf(w, "\n[VM %d] request %d (attempt %d)\n", cur, pl.Req, attempts)
		for _, i := range ix.byReq[pl.Req] {
			fmt.Fprintf(w, "  %s\n", formatDecision(recs[i]))
		}
		ri, ok := ix.requeueByVM[cur]
		if !ok {
			break
		}
		// The crash's synthetic request re-enters admission; its place
		// record names the successor uid.
		next := recs[ri]
		npi, ok := ix.placeByVM[nextUID(recs, ix, next.Req)]
		if !ok {
			fmt.Fprintf(w, "  %s (never re-placed)\n", formatDecision(next))
			break
		}
		cur = firstUID(recs[npi])
		if attempts > len(recs) {
			return fmt.Errorf("requeue chain for vm %d does not terminate (corrupt log?)", uid)
		}
	}
	return nil
}

// nextUID resolves the uid placed for a synthetic requeue request (the
// redo request carries exactly one VM).
func nextUID(recs []cloudsim.Decision, ix logIndex, req int) int {
	for _, i := range ix.byReq[req] {
		if recs[i].Kind == cloudsim.DecisionPlace && len(recs[i].VMIDs) > 0 {
			return recs[i].VMIDs[0]
		}
	}
	return -1
}

func firstUID(d cloudsim.Decision) int {
	if len(d.VMIDs) > 0 {
		return d.VMIDs[0]
	}
	return -1
}

// explainJob prints every decision mentioning the job, in log order.
func explainJob(w io.Writer, recs []cloudsim.Decision, job int) error {
	n := 0
	for _, d := range recs {
		if d.Job != job {
			continue
		}
		if n == 0 {
			fmt.Fprintf(w, "decisions for job %d:\n", job)
		}
		n++
		fmt.Fprintf(w, "  %s\n", formatDecision(d))
	}
	if n == 0 {
		return fmt.Errorf("job %d not in the decision log (%d records)", job, len(recs))
	}
	fmt.Fprintf(w, "%d decisions\n", n)
	return nil
}

// explainWindows summarizes the coordinator records: per window, the
// requests routed to each shard and the steals executed at its barrier.
func explainWindows(w io.Writer, recs []cloudsim.Decision) error {
	type winStat struct {
		t      float64
		routed map[int]int // shard -> requests routed
		steals int
	}
	wins := map[int]*winStat{}
	for _, d := range recs {
		if d.Window == 0 {
			continue
		}
		ws := wins[d.Window]
		if ws == nil {
			ws = &winStat{t: d.T, routed: map[int]int{}}
			wins[d.Window] = ws
		}
		switch d.Kind {
		case cloudsim.DecisionRoute:
			ws.routed[d.To]++
			if d.T < ws.t {
				ws.t = d.T
			}
		case cloudsim.DecisionSteal:
			ws.steals++
		}
	}
	if len(wins) == 0 {
		fmt.Fprintln(w, "no coordinator records (monolithic run, or log predates routing)")
		return nil
	}
	order := make([]int, 0, len(wins))
	for n := range wins {
		order = append(order, n)
	}
	sort.Ints(order)
	fmt.Fprintf(w, "%d coordinator windows:\n", len(order))
	for _, n := range order {
		ws := wins[n]
		shards := make([]int, 0, len(ws.routed))
		total := 0
		for s, c := range ws.routed {
			shards = append(shards, s)
			total += c
		}
		sort.Ints(shards)
		var parts []string
		for _, s := range shards {
			parts = append(parts, fmt.Sprintf("shard %d: %d", s, ws.routed[s]))
		}
		line := fmt.Sprintf("  window %d t=%g: %d routed", n, ws.t, total)
		if len(parts) > 0 {
			line += " (" + strings.Join(parts, ", ") + ")"
		}
		if ws.steals > 0 {
			line += fmt.Sprintf(", %d steals", ws.steals)
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// formatDecision renders one record as a human-readable line.
func formatDecision(d cloudsim.Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%-10g %-7s", d.T, d.Kind)
	switch d.Kind {
	case cloudsim.DecisionAdmit:
		fmt.Fprintf(&b, " job %d (%d VMs) entered the queue at depth %d [shard %d]", d.Job, d.VMs, d.Queue, d.Shard)
	case cloudsim.DecisionRoute:
		fmt.Fprintf(&b, " job %d routed to shard %d (window %d)", d.Job, d.To, d.Window)
	case cloudsim.DecisionSteal:
		fmt.Fprintf(&b, " job %d stolen from shard %d by shard %d (window %d)", d.Job, d.From, d.To, d.Window)
	case cloudsim.DecisionReject:
		fmt.Fprintf(&b, " %s", d.Reason)
		if d.Count > 1 {
			fmt.Fprintf(&b, " ×%d until t=%g", d.Count, d.TEnd)
		}
		if d.Candidates > 0 {
			fmt.Fprintf(&b, " (candidates %d)", d.Candidates)
		}
		if d.Search != nil {
			fmt.Fprintf(&b, " %s", formatSearch(d.Search))
		}
	case cloudsim.DecisionPlace:
		fmt.Fprintf(&b, " servers %v vm ids %v wait=%g", d.Servers, d.VMIDs, d.Wait)
		if d.Relaxed {
			b.WriteString(" relaxed")
		}
		if d.Degraded {
			b.WriteString(" degraded-to-first-fit")
		}
		if d.Search != nil {
			fmt.Fprintf(&b, " %s", formatSearch(d.Search))
		}
	case cloudsim.DecisionRequeue:
		fmt.Fprintf(&b, " VM %d killed on server %d (lost %gs) -> request %d", d.VMID, d.From, d.Lost, d.Req)
	case cloudsim.DecisionMigrate:
		if d.Reason != "" {
			fmt.Fprintf(&b, " VM %d %d->%d skipped: %s", d.VMID, d.From, d.To, d.Reason)
		} else {
			fmt.Fprintf(&b, " VM %d moved %d->%d", d.VMID, d.From, d.To)
		}
	case cloudsim.DecisionDegrade:
		// The reason names both levels: logs written before the ladder
		// lost its budgeted-search rung number the levels differently.
		fmt.Fprintf(&b, " level %d -> %d: %s", d.From, d.To, d.Reason)
	default:
		fmt.Fprintf(&b, " %+v", d)
	}
	return b.String()
}

func formatSearch(s *cloudsim.DecisionSearch) string {
	out := fmt.Sprintf("[search: %d enumerated, %d deduped, %d feasible, %d infeasible, %d pruned",
		s.Enumerated, s.Deduped, s.Feasible, s.Infeasible, s.Pruned)
	if s.Exhausted {
		out += ", budget exhausted"
	}
	return out + "]"
}
