// Datacenter example: replay an EGEE-like trace through the cloud
// simulator under first-fit and under the paper's PROACTIVE strategy,
// and compare makespan, energy and SLA violations — a miniature of the
// paper's Sect.-IV evaluation.
//
//	go run ./examples/datacenter
package main

import (
	"fmt"
	"log"
	"os"

	"pacevm/internal/campaign"
	"pacevm/internal/cloudsim"
	"pacevm/internal/core"
	"pacevm/internal/report"
	"pacevm/internal/strategy"
	"pacevm/internal/trace"
)

func main() {
	// Model database (full pricing grid so first-fit multiplexing is
	// always priced exactly).
	ccfg := campaign.DefaultConfig()
	ccfg.FullGridTotal = 16
	db, _, err := campaign.Run(ccfg)
	if err != nil {
		log.Fatal(err)
	}

	// A ~2,000-VM synthetic EGEE-like trace, preprocessed with the
	// paper's pipeline (clean, profile bursts, 1-4 VMs/job, QoS).
	gcfg := trace.DefaultGenConfig(1)
	gcfg.Jobs = 1200
	tr, err := trace.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(1)
	pcfg.TargetVMs = 2000
	reqs, rep, err := trace.Prepare(tr, pcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d requests, %d VMs\n\n", rep.Requests, rep.TotalVMs)

	ff, err := strategy.NewFirstFit(1)
	if err != nil {
		log.Fatal(err)
	}
	ff2, err := strategy.NewFirstFit(2)
	if err != nil {
		log.Fatal(err)
	}
	pa, err := strategy.NewProactive(db, core.GoalBalanced)
	if err != nil {
		log.Fatal(err)
	}

	const servers = 14
	t := report.NewTable(fmt.Sprintf("strategy comparison on %d servers", servers),
		"strategy", "makespan(s)", "energy(MJ)", "SLA violations", "avg wait(s)")
	for _, st := range []strategy.Strategy{ff, ff2, pa} {
		res, err := cloudsim.Run(cloudsim.Config{
			DB: db, Servers: servers, Strategy: st, IdleServerPower: -1,
		}, reqs)
		if err != nil {
			log.Fatal(err)
		}
		m := res.Metrics
		t.AddRowf("%s\t%.0f\t%.1f\t%.1f%%\t%.0f",
			st.Name(), float64(m.Makespan), float64(m.Energy)/1e6,
			m.SLAViolationPct(), float64(m.AvgWait))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nPROACTIVE consolidates compatible VMs, so it runs the same")
	fmt.Println("workload faster, with less energy and fewer missed deadlines.")
}
