// Extend: the paper's extensibility claim, live. A custom strategy bundle
// — a plan builder that only aggregates packet *pairs* — is registered in a
// few lines and compared against the built-in strategies on the same
// workload.
//
//	go run ./examples/extend
package main

import (
	"fmt"
	"log"

	"newmad/internal/caps"
	"newmad/internal/exp"
	"newmad/internal/packet"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// pairwise is a deliberately simple custom builder: it sends the oldest
// waiting packet together with at most one compatible partner. Real
// deployments would do something smarter — the point is how little code a
// new strategy needs.
type pairwise struct{}

func (pairwise) Name() string { return "pairwise" }

func (pairwise) Build(ctx *strategy.Context) *strategy.Plan {
	if len(ctx.Backlog) == 0 {
		return nil
	}
	head := ctx.Backlog[0]
	plan := &strategy.Plan{Packets: []*packet.Packet{head}, Evaluated: 1}
	lim := packet.AggregateLimits{MaxIOV: ctx.Caps.MaxIOV, MaxAggregate: ctx.Caps.MaxAggregate}
	for _, p := range ctx.Backlog[1:] {
		if p.Dst == head.Dst && packet.CanAppend(p, 1, head.Size(), head.Dst, lim) {
			plan.Packets = append(plan.Packets, p)
			break
		}
	}
	strategy.ScorePlan(ctx.Caps, ctx.Mem, plan)
	return plan
}

func init() {
	// Registration is the entire integration surface.
	strategy.MustRegister("pairwise", func() strategy.Bundle {
		return strategy.Bundle{
			Builder:  pairwise{},
			Rail:     strategy.SharedRail{},
			Classes:  strategy.ReservedControl{},
			Protocol: strategy.ThresholdProtocol{},
		}
	})
}

// point is the comparison every bundle runs: 8 flows of 32 back-to-back
// 64 B messages, node 0 -> 1 over single-channel MX.
func point(bundle string) exp.Point {
	return exp.Point{
		RigOptions: exp.RigOptions{Profiles: []caps.Caps{exp.SingleChannel(caps.MX)}, Bundle: bundle},
		Flows: exp.Fan(8, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size: workload.Fixed(64), Arrival: workload.BackToBack{}, Count: 32,
		}),
	}
}

func main() {
	fmt.Println("a custom strategy registers in one init block and competes immediately:")
	fmt.Println()
	fmt.Printf("%-22s %10s %10s\n", "strategy", "frames", "time")
	for _, name := range []string{"fifo", "pairwise", "aggregate"} {
		m, _, err := exp.RunPoint(point(name), 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10d %10v\n", name, m.Frames, m.End)
	}
	fmt.Println()
	fmt.Println("pairwise halves the transaction count of fifo; the built-in greedy")
	fmt.Println("aggregation beats both — and replacing it is exactly this easy.")
}
