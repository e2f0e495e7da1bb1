// Tradeoff example: sweep the optimization goal α from 0 (pure
// performance) to 1 (pure energy) and watch the allocator trade
// execution time against energy — the knob of Sect. III.D. The paper
// evaluates α ∈ {0, 0.5, 1} and notes intermediate values (e.g. 0.75)
// change little; the sweep shows why.
//
//	go run ./examples/tradeoff
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
	ccfg := campaign.DefaultConfig()
	ccfg.FullGridTotal = 16
	db, _, err := campaign.Run(ccfg)
	if err != nil {
		log.Fatal(err)
	}

	gcfg := trace.DefaultGenConfig(3)
	gcfg.Jobs = 900
	tr, err := trace.Generate(gcfg)
	if err != nil {
		log.Fatal(err)
	}
	pcfg := trace.DefaultPrepConfig(3)
	pcfg.TargetVMs = 1500
	reqs, _, err := trace.Prepare(tr, pcfg)
	if err != nil {
		log.Fatal(err)
	}

	s := report.NewSeries("PA-α sweep on 11 servers (1,500 VMs)",
		"alpha", "makespan(s)", "energy(MJ)", "sla(%)")
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		pa, err := strategy.NewProactive(db, core.Goal{Alpha: alpha})
		if err != nil {
			log.Fatal(err)
		}
		res, err := cloudsim.Run(cloudsim.Config{
			DB: db, Servers: 11, Strategy: pa, IdleServerPower: -1,
		}, reqs)
		if err != nil {
			log.Fatal(err)
		}
		m := res.Metrics
		if err := s.Add(alpha, float64(m.Makespan), float64(m.Energy)/1e6, m.SLAViolationPct()); err != nil {
			log.Fatal(err)
		}
	}
	if err := s.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nα weights energy, 1-α weights execution time. The ends of the")
	fmt.Println("sweep pull in opposite directions; the middle barely moves —")
	fmt.Println("matching the paper's observation that the goal's impact is moderate.")
}
