package strategy

import (
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Extension strategies. These are not described in the paper; they are the
// proof of its extensibility claim ("the database of predefined strategies
// can be easily extended") and the subjects of the ablation benchmarks.

// Densest is a plan builder that targets the *densest* destination — the
// one with the most aggregatable waiting bytes — instead of the backlog
// head's destination. Pure density maximizes per-frame amortization but
// can starve a lone packet to a quiet destination, so a starvation bound
// forces the head out once it has waited MaxAge.
type Densest struct {
	// MaxAge bounds how long the backlog head may be deferred in favor of
	// denser destinations (0 = 50 µs).
	MaxAge simnet.Duration
}

// NewDensest returns the builder with the default starvation bound.
func NewDensest() *Densest { return &Densest{MaxAge: 50 * simnet.Microsecond} }

// Name returns "densest".
func (d *Densest) Name() string { return "densest" }

// Build picks the destination with the most waiting payload bytes, unless
// the head packet has aged past the starvation bound.
func (d *Densest) Build(ctx *Context) *Plan {
	if len(ctx.Backlog) == 0 {
		return nil
	}
	maxAge := d.MaxAge
	if maxAge <= 0 {
		maxAge = 50 * simnet.Microsecond
	}
	head := ctx.Backlog[0]
	target := head.Dst
	if ctx.Now.Sub(head.Enqueued) < maxAge {
		// Head not yet starving: pick the densest destination.
		bytes := map[packet.NodeID]int{}
		for _, p := range ctx.Backlog {
			bytes[p.Dst] += p.Size()
		}
		best := -1
		for _, p := range ctx.Backlog { // deterministic iteration order
			if b := bytes[p.Dst]; b > best {
				best = b
				target = p.Dst
			}
		}
	}
	lim := packet.AggregateLimits{MaxIOV: ctx.Caps.MaxIOV, MaxAggregate: ctx.Caps.MaxAggregate}
	plan := &Plan{Evaluated: 1}
	size := 0
	blocked := map[packet.FlowID]bool{}
	for _, p := range ctx.Backlog {
		if p.Dst != target {
			continue
		}
		if blocked[p.Flow] {
			continue
		}
		if !packet.CanAppend(p, len(plan.Packets), size, target, lim) {
			blocked[p.Flow] = true
			continue
		}
		plan.Packets = append(plan.Packets, p)
		size += p.Size()
	}
	if len(plan.Packets) == 0 {
		// The densest destination was blocked entirely (e.g. byte limit);
		// fall back to the head.
		plan.Packets = ctx.Backlog[:1:1]
	}
	ScorePlan(ctx.Caps, ctx.Mem, plan)
	return plan
}

func init() {
	// densest: throughput-greedy aggregation with a starvation bound.
	MustRegister("densest", func() Bundle {
		return Bundle{
			Builder:  NewDensest(),
			Rail:     SharedRail{},
			Classes:  ReservedControl{},
			Protocol: ThresholdProtocol{},
		}
	})
}
