package chaos

import (
	"fmt"
	"time"

	"newmad/internal/simnet"
)

// Group scripts are the manifest-facing half of the scenario DSL: instead of
// hand-picking node IDs, an author names role groups ("edge", "core") and a
// fault budget, and Resolve draws the concrete edges from a seeded RNG. The
// same groups, events and seed always resolve to the identical Script, so a
// manifest-driven scenario replays event-for-event.

// GroupEvent is one scripted fault addressed at role groups. Heals are not
// authored separately: each down-type event carries its own For duration and
// Resolve emits the paired heal, which guarantees the heal hits exactly the
// edges the down hit (two independent random draws could not).
type GroupEvent struct {
	// At is the offset of the fault from scenario start.
	At time.Duration
	// Op selects the fault: OpRailDown, OpPartition or OpCrash. Heal ops
	// are rejected — they are implied by For.
	Op Op
	// For is how long the fault lasts; the paired heal fires at At+For.
	// Zero is legal and yields a down/heal pair at the same instant (the
	// stable sort keeps down before heal). Ignored by OpCrash.
	For time.Duration
	// Group names the subject role group.
	Group string
	// Peer names the peer role group; empty means the subject's own group.
	// Ignored by OpCrash.
	Peer string
	// Rail is the rail index for OpRailDown; negative draws a random rail
	// per edge. Ignored by other ops.
	Rail int
	// Count is how many distinct edges (nodes, for OpCrash) to draw.
	// Zero means one.
	Count int
}

// GroupScript is a complete role-group scenario.
type GroupScript struct {
	Events []GroupEvent
}

// Resolve expands the group script into a concrete Script against the given
// group membership, drawing edges from rng. Membership slices are consumed
// in the order given — callers must pass deterministically ordered slices
// (never freshly ranged map keys) for replay to hold; the groups map itself
// is only ever indexed by event-named keys, so its iteration order is moot.
func (g GroupScript) Resolve(groups map[string][]int, rails int, rng *simnet.RNG) (Script, error) {
	var s Script
	for i, e := range g.Events {
		if e.At < 0 {
			return Script{}, fmt.Errorf("chaos: group event %d at negative offset %v", i, e.At)
		}
		if e.For < 0 {
			return Script{}, fmt.Errorf("chaos: group event %d with negative duration %v", i, e.For)
		}
		subject, ok := groups[e.Group]
		if !ok || len(subject) == 0 {
			return Script{}, fmt.Errorf("chaos: group event %d names unknown or empty group %q", i, e.Group)
		}
		count := e.Count
		if count == 0 {
			count = 1
		}
		if count < 0 {
			return Script{}, fmt.Errorf("chaos: group event %d with negative count %d", i, e.Count)
		}

		if e.Op == OpCrash {
			nodes, err := drawNodes(subject, count, rng)
			if err != nil {
				return Script{}, fmt.Errorf("chaos: group event %d: %v", i, err)
			}
			for _, n := range nodes {
				s.Events = append(s.Events, Event{At: e.At, Op: OpCrash, Node: n})
			}
			continue
		}

		heal, ok := e.Op.heal()
		if !ok {
			return Script{}, fmt.Errorf("chaos: group event %d has op %v; only rail-down, partition and crash may be authored (heals are implied by For)", i, e.Op)
		}

		peerGroup := e.Peer
		if peerGroup == "" {
			peerGroup = e.Group
		}
		peers, ok := groups[peerGroup]
		if !ok || len(peers) == 0 {
			return Script{}, fmt.Errorf("chaos: group event %d names unknown or empty peer group %q", i, peerGroup)
		}

		edges, err := drawEdges(subject, peers, count, rng)
		if err != nil {
			return Script{}, fmt.Errorf("chaos: group event %d: %v", i, err)
		}
		for _, ed := range edges {
			rail := e.Rail
			if e.Op == OpRailDown && rail < 0 {
				if rails < 1 {
					return Script{}, fmt.Errorf("chaos: group event %d draws a random rail but the topology has none", i)
				}
				rail = rng.Intn(rails)
			}
			s.Events = append(s.Events,
				Event{At: e.At, Op: e.Op, Node: ed[0], Peer: ed[1], Rail: rail},
				Event{At: e.At + e.For, Op: heal, Node: ed[0], Peer: ed[1], Rail: rail},
			)
		}
	}
	return s, nil
}

// drawNodes draws count distinct nodes from members.
func drawNodes(members []int, count int, rng *simnet.RNG) ([]int, error) {
	if count > len(members) {
		return nil, fmt.Errorf("count %d exceeds group size %d", count, len(members))
	}
	// Partial Fisher–Yates over a copy: deterministic and duplicate-free.
	pool := append([]int(nil), members...)
	out := make([]int, 0, count)
	for i := 0; i < count; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
		out = append(out, pool[i])
	}
	return out, nil
}

// drawEdges draws count distinct (node, peer) pairs with node from a, peer
// from b, node != peer. Rejection sampling is deterministic under a seeded
// RNG; the attempt cap turns an impossible request into an error instead of
// a spin.
func drawEdges(a, b []int, count int, rng *simnet.RNG) ([][2]int, error) {
	seen := make(map[[2]int]bool, count)
	out := make([][2]int, 0, count)
	for attempts := 0; len(out) < count; attempts++ {
		if attempts > 64+count*64 {
			return nil, fmt.Errorf("cannot draw %d distinct edges between groups of %d and %d", count, len(a), len(b))
		}
		e := [2]int{a[rng.Intn(len(a))], b[rng.Intn(len(b))]}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out, nil
}
