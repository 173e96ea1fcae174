// Package strategy is the paper's "database of predefined strategies": the
// pluggable decision components of the optimization engine, and a registry
// that makes the set easily extendable.
//
// A strategy bundle answers the four questions the optimizer faces:
//
//   - PlanBuilder — a send channel just became idle; which waiting packets
//     travel next, combined how? (fifo, greedy aggregation, bounded search)
//   - RailPolicy — which NIC(s) may a packet use in a multi-rail node?
//     (pinned one-to-one, shared pool, class affinity)
//   - ClassPolicy — which channels of a NIC may a traffic class occupy?
//     (single queue, reserved control lane, adaptive re-partitioning)
//   - ProtocolPolicy — eager or rendezvous for a given packet?
//
// The optimizing layer (internal/core) owns *when* these run — on NIC idle
// upcalls, per the paper's central idea — and the constraint rules they
// must respect live in internal/packet. Strategies are pure decision logic
// and hold no engine state, so one bundle instance can serve many engines.
package strategy

import (
	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Context is the information available to a PlanBuilder when a channel of
// one NIC becomes idle.
type Context struct {
	// Now is the current (virtual or wall) time.
	Now simnet.Time
	// Caps/Mem describe the NIC whose channel went idle.
	Caps caps.Caps
	Mem  memsim.Model
	// Backlog is the view of waiting packets eligible for this NIC, in
	// submission order. Builders must not mutate it. It is the node's whole
	// eligible backlog up to the lookahead window, so everything
	// aggregatable into one frame (one destination's flows) is visible
	// together, and a builder never needs to look past the slice it was
	// given.
	Backlog []*packet.Packet
	// Budget bounds how many candidate arrangements the builder may
	// evaluate (the paper's future-work question, reproduced by E6).
	// Zero means "builder's default".
	Budget int

	// plan is builder scratch, see scratchPlan. A Context that is reused
	// across Builds (the engine keeps one for all its pumps) carries it along;
	// the exported fields are set per Build.
	plan Plan
}

// scratchPlan returns the context's reusable plan, emptied. A builder may
// return it from Build instead of allocating a plan and a packet slice per
// call; the plan is then valid only until the next Build with the same
// Context. That is all the engine needs: a pump consumes its plan under the
// engine lock before the next pump builds again, and nothing keeps plan.Packets
// past the post. Never alias the backlog through it (append copies) — the
// next builder to run on this Context writes into the same backing array.
func (c *Context) scratchPlan() *Plan {
	c.plan = Plan{Packets: c.plan.Packets[:0]}
	return &c.plan
}

// Plan is a builder's answer: the sub-packets of the next frame, in order,
// plus the estimated host-side preparation cost.
type Plan struct {
	// Packets travel as one frame; they must satisfy
	// packet.OrderedSubset and share one destination.
	Packets []*packet.Packet
	// HostExtra is the staging cost (copy/gather) the engine charges the
	// channel, from the same estimator strategies score with.
	HostExtra simnet.Duration
	// Score is the estimated time saved versus sending the packets
	// separately (diagnostic; the engine does not re-rank plans).
	Score simnet.Duration
	// Evaluated counts candidate arrangements examined, the x-axis of the
	// rearrangement-bounding experiment.
	Evaluated int
}

// PlanBuilder chooses the contents of the next frame for an idle channel.
type PlanBuilder interface {
	// Name identifies the builder in the registry and in experiment rows.
	Name() string
	// Build returns the next plan, or nil when the backlog is empty or the
	// builder prefers to wait. Build must not mutate the backlog. The plan
	// may live in ctx's scratch: it is valid until the next Build with the
	// same Context, and a caller that keeps plans longer copies them.
	Build(ctx *Context) *Plan
}

// RailInfo describes one NIC of a multi-rail node to a RailPolicy.
type RailInfo struct {
	// Index and Count position this rail among the node's rails (sorted
	// deterministically by the engine).
	Index int
	Count int
	// Caps is the rail's capability record.
	Caps caps.Caps
}

// RailPolicy decides which rails a packet may travel on.
type RailPolicy interface {
	Name() string
	// Eligible reports whether p may be sent on the given rail.
	Eligible(p *packet.Packet, rail RailInfo) bool
}

// ClassPolicy decides which send channels of a NIC a traffic class may
// occupy — the paper's assignment of multiplexing units to traffic classes.
type ClassPolicy interface {
	Name() string
	// Allowed reports whether class may use channel ch of numCh.
	Allowed(class packet.ClassID, ch, numCh int) bool
	// Observe feeds traffic back to adaptive policies; static policies
	// ignore it.
	Observe(p *packet.Packet)
}

// ProtocolPolicy decides eager versus rendezvous per packet. The engine
// additionally enforces the hard constraint that express packets stay
// eager regardless of the policy's answer.
type ProtocolPolicy interface {
	Name() string
	// UseRendezvous reports whether p should travel by rendezvous given
	// the capability record of the rail it will use.
	UseRendezvous(p *packet.Packet, c caps.Caps) bool
}

// Bundle is one complete strategy: a named combination of the four
// policies. The registry stores bundles; engines are configured with one
// and may switch at runtime (dynamic policy change, E10).
type Bundle struct {
	Name     string
	Builder  PlanBuilder
	Rail     RailPolicy
	Classes  ClassPolicy
	Protocol ProtocolPolicy
}
