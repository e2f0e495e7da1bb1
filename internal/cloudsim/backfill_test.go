package cloudsim

import (
	"testing"

	"pacevm/internal/trace"
	"pacevm/internal/units"
	"pacevm/internal/workload"
)

// blockingReqs crafts a head-of-line blocking scenario: a 4-VM job that
// cannot fit behind an almost-full cloud, followed by single-VM jobs
// that could run in the remaining slot.
func blockingReqs(t *testing.T) []trace.Request {
	t.Helper()
	ref := sharedDB(t).Aux().RefTime[workload.ClassCPU]
	reqs := []trace.Request{
		// Fill 3 of the 4 FF slots on the single server.
		{ID: 1, Submit: 0, Class: workload.ClassCPU, VMs: 3, NominalTime: ref * 2, MaxResponse: ref * 20},
		// The blocker: needs 4 slots at once.
		{ID: 2, Submit: 1, Class: workload.ClassCPU, VMs: 4, NominalTime: ref, MaxResponse: ref * 20},
		// Small jobs that fit the one remaining slot right now.
		{ID: 3, Submit: 2, Class: workload.ClassCPU, VMs: 1, NominalTime: ref / 2, MaxResponse: ref * 20},
		{ID: 4, Submit: 3, Class: workload.ClassCPU, VMs: 1, NominalTime: ref / 2, MaxResponse: ref * 20},
	}
	return reqs
}

func TestStrictFCFSBlocksBehindHead(t *testing.T) {
	db := sharedDB(t)
	_, vms := runRecords(t, Run, Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, blockingReqs(t))
	// Without backfilling, jobs 3 and 4 must start no earlier than the
	// blocked 4-VM job.
	starts := map[int]units.Seconds{}
	for _, vm := range vms {
		if cur, ok := starts[vm.JobID]; !ok || vm.Placed < cur {
			starts[vm.JobID] = vm.Placed
		}
	}
	if starts[3] < starts[2] || starts[4] < starts[2] {
		t.Errorf("strict FCFS let small jobs jump the blocked head: starts=%v", starts)
	}
}

func TestBackfillLetsSmallJobsThrough(t *testing.T) {
	db := sharedDB(t)
	res, vms := runRecords(t, Run, Config{DB: db, Servers: 1, Strategy: ff(t, 1), BackfillDepth: 4}, blockingReqs(t))
	starts := map[int]units.Seconds{}
	for _, vm := range vms {
		if cur, ok := starts[vm.JobID]; !ok || vm.Placed < cur {
			starts[vm.JobID] = vm.Placed
		}
	}
	if starts[3] >= starts[2] {
		t.Errorf("backfilling did not advance job 3 past the blocked head: starts=%v", starts)
	}
	// Everyone still completes exactly once.
	if res.TotalVMs != 9 || len(vms) != 9 {
		t.Errorf("VM accounting broken: %d/%d", res.TotalVMs, len(vms))
	}
}

func TestBackfillImprovesUtilizationUnderLoad(t *testing.T) {
	db := sharedDB(t)
	reqs := blockingReqs(t)
	plain, err := Run(Config{DB: db, Servers: 1, Strategy: ff(t, 1)}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Run(Config{DB: db, Servers: 1, Strategy: ff(t, 1), BackfillDepth: 8}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if back.AvgWait > plain.AvgWait {
		t.Errorf("backfilling increased average wait: %v vs %v", back.AvgWait, plain.AvgWait)
	}
}
