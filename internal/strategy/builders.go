package strategy

import (
	"newmad/internal/packet"
)

// flowSet is an allocation-free small set of flow ids. A single plan only
// ever blocks the handful of connections it skipped within, which fits a
// stack array in the steady state; pathological fan-in spills to a map.
// Builders are shared across engines, so the set lives on the Build stack,
// never on the builder.
type flowSet struct {
	n     int
	small [16]packet.FlowID
	spill map[packet.FlowID]bool
}

func (s *flowSet) add(f packet.FlowID) {
	if s.spill != nil {
		s.spill[f] = true
		return
	}
	if s.n < len(s.small) {
		s.small[s.n] = f
		s.n++
		return
	}
	s.spill = make(map[packet.FlowID]bool, 2*len(s.small))
	for _, v := range s.small {
		s.spill[v] = true
	}
	s.spill[f] = true
}

func (s *flowSet) has(f packet.FlowID) bool {
	if s.spill != nil {
		return s.spill[f]
	}
	for i := 0; i < s.n; i++ {
		if s.small[i] == f {
			return true
		}
	}
	return false
}

// nodeSet is the same small-set idea for destination node ids.
type nodeSet struct {
	n     int
	small [16]packet.NodeID
	spill map[packet.NodeID]bool
}

func (s *nodeSet) add(d packet.NodeID) {
	if s.spill != nil {
		s.spill[d] = true
		return
	}
	if s.n < len(s.small) {
		s.small[s.n] = d
		s.n++
		return
	}
	s.spill = make(map[packet.NodeID]bool, 2*len(s.small))
	for _, v := range s.small {
		s.spill[v] = true
	}
	s.spill[d] = true
}

func (s *nodeSet) has(d packet.NodeID) bool {
	if s.spill != nil {
		return s.spill[d]
	}
	for i := 0; i < s.n; i++ {
		if s.small[i] == d {
			return true
		}
	}
	return false
}

// planCapHint bounds the Packets preallocation: big enough that typical
// aggregates never regrow, small enough that a deep backlog doesn't cost
// an oversized slice per pump.
func planCapHint(backlog int) int {
	if backlog > 64 {
		return 64
	}
	return backlog
}

// FIFO is the previous-Madeleine baseline builder: send the oldest waiting
// packet, alone. Deterministic flow handling, no cross-flow optimization —
// exactly the behaviour the paper's engine replaces.
type FIFO struct{}

// Name returns "fifo".
func (FIFO) Name() string { return "fifo" }

// Build takes the backlog head as a single-packet plan.
func (FIFO) Build(ctx *Context) *Plan {
	if len(ctx.Backlog) == 0 {
		return nil
	}
	plan := ctx.scratchPlan()
	plan.Packets = append(plan.Packets, ctx.Backlog[0])
	plan.Evaluated = 1
	ScorePlan(ctx.Caps, ctx.Mem, plan)
	return plan
}

// Aggregate is the paper's headline builder: starting from the oldest
// waiting packet, greedily append every later packet bound for the same
// destination that the capability record admits — mixing packets from
// several independent communication flows into one network transaction.
//
// Scanning the backlog in submission order and never skipping *within* a
// flow preserves the intra-flow FIFO constraint by construction (appending
// a flow's packets in encounter order is exactly their submission order).
type Aggregate struct {
	// CrossFlow, when false, restricts aggregation to packets of the same
	// flow as the head packet (the intra-flow-only ablation of E1).
	CrossFlow bool
	// MaxPackets caps sub-packets per frame (0 = capability-driven only).
	MaxPackets int
	// EagerOnlyAggregation, when true, refuses to pull ClassBulk packets
	// into aggregates (bulk rides alone); the default pulls everything the
	// caps admit.
	EagerOnlyAggregation bool
}

// NewAggregate returns the default cross-flow aggregation builder.
func NewAggregate() *Aggregate { return &Aggregate{CrossFlow: true} }

// Name returns "aggregate" (or the ablation variant name).
func (a *Aggregate) Name() string {
	if !a.CrossFlow {
		return "aggregate-intraflow"
	}
	return "aggregate"
}

// Build greedily collects the head packet's destination.
func (a *Aggregate) Build(ctx *Context) *Plan {
	if len(ctx.Backlog) == 0 {
		return nil
	}
	head := ctx.Backlog[0]
	lim := packet.AggregateLimits{MaxIOV: ctx.Caps.MaxIOV, MaxAggregate: ctx.Caps.MaxAggregate}
	plan := ctx.scratchPlan()
	plan.Packets = append(plan.Packets, head)
	plan.Evaluated = 1
	size := head.Size()
	// blockedFlows records connections where we had to skip a same-
	// destination packet: taking a later packet of such a connection would
	// reorder within it. Packets to *other* destinations skip freely
	// (different connection, no shared order).
	var blockedFlows flowSet
	for _, p := range ctx.Backlog[1:] {
		if a.MaxPackets > 0 && len(plan.Packets) >= a.MaxPackets {
			break
		}
		if p.Dst != head.Dst {
			continue
		}
		if blockedFlows.has(p.Flow) {
			continue
		}
		if !a.CrossFlow && p.Flow != head.Flow {
			continue
		}
		if a.EagerOnlyAggregation && p.Class == packet.ClassBulk {
			blockedFlows.add(p.Flow)
			continue
		}
		if !packet.CanAppend(p, len(plan.Packets), size, head.Dst, lim) {
			blockedFlows.add(p.Flow)
			continue
		}
		plan.Packets = append(plan.Packets, p)
		size += p.Size()
	}
	ScorePlan(ctx.Caps, ctx.Mem, plan)
	return plan
}

// BoundedSearch evaluates several candidate arrangements — different
// destination choices and aggregate lengths — under an explicit budget,
// reproducing the paper's future-work question of bounding the number of
// data rearrangements the optimizer considers.
//
// Candidates examined, in order, until the budget runs out:
//
//	for each distinct destination in backlog order:
//	  for each prefix length L = all, all/2, all/4, ..., 1 of the greedy
//	  collection for that destination:
//	    score the candidate
//
// The candidate with the best score-per-occupancy is chosen, except that a
// candidate that would starve the backlog head for a different destination
// is only taken when its score strictly exceeds the head candidate's (the
// head must not be starved forever; the engine also ages packets).
type BoundedSearch struct {
	// DefaultBudget applies when the context does not set one.
	DefaultBudget int
}

// NewBoundedSearch returns a search builder with the given default budget.
func NewBoundedSearch(budget int) *BoundedSearch {
	if budget < 1 {
		budget = 16
	}
	return &BoundedSearch{DefaultBudget: budget}
}

// Name returns "search".
func (s *BoundedSearch) Name() string { return "search" }

// Build enumerates candidates within the budget and returns the best.
func (s *BoundedSearch) Build(ctx *Context) *Plan {
	if len(ctx.Backlog) == 0 {
		return nil
	}
	budget := ctx.Budget
	if budget <= 0 {
		budget = s.DefaultBudget
	}
	lim := packet.AggregateLimits{MaxIOV: ctx.Caps.MaxIOV, MaxAggregate: ctx.Caps.MaxAggregate}
	head := ctx.Backlog[0]

	var best *Plan
	evaluated := 0

	consider := func(cand *Plan) {
		evaluated++
		cand.Evaluated = evaluated
		ScorePlan(ctx.Caps, ctx.Mem, cand)
		if best == nil {
			best = cand
			return
		}
		// Prefer higher score; tie-break toward the head packet's
		// destination to avoid starvation.
		if cand.Score > best.Score ||
			(cand.Score == best.Score && cand.Packets[0] == head && best.Packets[0] != head) {
			best = cand
		}
	}

	// Distinct destinations in backlog order.
	var seen nodeSet
dests:
	for _, p0 := range ctx.Backlog {
		if seen.has(p0.Dst) {
			continue
		}
		seen.add(p0.Dst)
		full := s.collect(ctx.Backlog, p0.Dst, lim)
		if len(full) == 0 {
			continue
		}
		for l := len(full); l >= 1; l = l / 2 {
			cand := &Plan{Packets: full[:l:l]}
			consider(cand)
			if evaluated >= budget {
				break dests
			}
			if l == 1 {
				break
			}
		}
	}
	if best != nil {
		best.Evaluated = evaluated
	}
	return best
}

// collect is the greedy same-destination gather respecting intra-
// connection order (skip a connection once one of its same-destination
// packets is skipped; other destinations are other connections and skip
// freely).
func (s *BoundedSearch) collect(backlog []*packet.Packet, dst packet.NodeID, lim packet.AggregateLimits) []*packet.Packet {
	out := make([]*packet.Packet, 0, planCapHint(len(backlog)))
	size := 0
	var blocked flowSet
	for _, p := range backlog {
		if p.Dst != dst {
			continue
		}
		if blocked.has(p.Flow) {
			continue
		}
		if !packet.CanAppend(p, len(out), size, dst, lim) {
			blocked.add(p.Flow)
			continue
		}
		out = append(out, p)
		size += p.Size()
	}
	return out
}
