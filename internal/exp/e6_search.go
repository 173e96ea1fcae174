package exp

import (
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E6 — the paper's second named future-work study (§4): "study how to
// bound the number of data rearrangements the optimizer has to evaluate so
// as to determine the best combination of optimization techniques."
//
// The bounded-search builder enumerates candidate frame compositions
// (destination choices × aggregate lengths) under an explicit budget.
// Workload: traffic to several destinations so candidates genuinely
// differ. Reported per budget: plan quality (completion time), candidates
// actually evaluated, and optimizer wall-clock cost — quality saturates at
// a small budget, which is exactly the answer the paper was after.

func e6Shape(cfg Config) (dests, flowsPerDest, perFlow int, budgets []int) {
	if cfg.Quick {
		return 3, 2, 8, []int{1, 4, 16}
	}
	return 4, 3, 24, []int{1, 2, 4, 8, 16, 32, 64}
}

func e6Point(budget int, cfg Config) (Metrics, *Rig) {
	dests, flowsPerDest, perFlow, _ := e6Shape(cfg)
	flows := Fan(dests*flowsPerDest, workload.FlowSpec{
		Class:   packet.ClassSmall,
		Size:    workload.Uniform{Lo: 32, Hi: 512},
		Arrival: &workload.Bursts{Size: 8, Gap: 40 * simnet.Microsecond},
		Count:   perFlow,
	})
	for i := range flows {
		flows[i].Dst = packet.NodeID(1 + i/flowsPerDest)
	}
	return run(Point{
		RigOptions: RigOptions{ID: "E6", Bundle: "search", Knobs: strategy.Knobs{SearchBudget: budget}, Nodes: dests + 1},
		Flows:      flows,
	}, cfg)
}

func runE6(cfg Config) []*stats.Table {
	_, _, _, budgets := e6Shape(cfg)
	t := stats.NewTable("E6 — rearrangement search budget sweep (4 destinations, bursty)",
		"budget", "time(µs)", "frames", "avg evaluated", "wall(ms)")
	t.Caption = "plan quality saturates at a small budget; beyond it only optimizer CPU grows"
	for _, b := range budgets {
		m, rig := e6Point(b, cfg)
		t.AddRowf(b, m.EndUs(), m.Frames, rig.Cl.Stats.Histogram("core.plan_evaluated").Mean(), wallMs(m))
	}
	return []*stats.Table{t}
}

// E6Quality returns the completion time for a budget (test oracle).
func E6Quality(budget int, cfg Config) float64 {
	m, _ := e6Point(budget, cfg)
	return float64(m.End)
}
