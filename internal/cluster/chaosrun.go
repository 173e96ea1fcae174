package cluster

import (
	"fmt"
	"time"

	"newmad/internal/chaos"
	"newmad/internal/packet"
)

// Chaos integration: frame-fault injectors on every rail (ChaosPlan) and
// the scenario runner that executes a chaos.Script against the live
// cluster. Together they are what the resilience battery and experiment X5
// drive: deterministic faults from one seed, recovery by the engines under
// test.

// ChaosPlan configures frame-level fault injection for a cluster.
type ChaosPlan struct {
	// Seed feeds the per-rail RNGs: rail (node, rail) forks its stream from
	// it by identity (chaos.RailInjector — the same key the emulated
	// testnet uses, so one seed names the same stream in both tiers), and
	// each rail's fault decisions are a pure function of the
	// frames it sees, in the order it sees them. Note the
	// scope of that determinism: over real sockets, frames from different
	// sources interleave in wall-clock arrival order, so per-frame fault
	// *counts* vary between runs of the same seed — the event-for-event
	// replay guarantee belongs to the scripted schedule (RunScript +
	// chaos.Trace), not to the probabilistic rules.
	Seed uint64
	// Rules apply to every rail of every node.
	Rules []chaos.Rule
}

// RunScript executes a chaos scenario against the cluster on the wall
// clock, blocking until the last event has run. Each event is recorded
// into tr (when non-nil) with its *scheduled* offset, and only after it
// executed successfully — so a complete trace proves the whole schedule
// ran, and two complete traces from the same script are identical
// event-for-event (the replay guarantee X5 asserts).
//
// What each op does is chaos.Apply's business; the cluster only supplies
// the socket actions (the chaos.Fabric methods below). The script must
// validate against the cluster's shape.
func (c *Cluster) RunScript(s chaos.Script, tr *chaos.Trace) error {
	if err := s.Validate(len(c.Nodes), c.Rails()); err != nil {
		return err
	}
	start := time.Now()
	for _, e := range s.Sorted() {
		if wait := e.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if err := chaos.Apply(c, e); err != nil {
			return fmt.Errorf("cluster: executing %v: %w", e, err)
		}
		tr.Record(e)
	}
	return nil
}

// Rails implements chaos.Fabric.
func (c *Cluster) Rails() int { return len(c.Nodes[0].Rails) }

// Sever implements chaos.Fabric: BreakPeer on each side (the TCP reset also
// propagates, but breaking both ends makes the cut symmetric regardless of
// traffic direction). Breaking an already-dead (or crashed) side is a
// no-op.
func (c *Cluster) Sever(a, b, rail int) {
	c.Nodes[a].Rails[rail].BreakPeer(packet.NodeID(b))
	c.Nodes[b].Rails[rail].BreakPeer(packet.NodeID(a))
}

// Mend implements chaos.Fabric: re-dial in both directions. Healing toward
// a crashed node fails its dial; the error is surfaced (scripts should not
// heal crashed nodes).
func (c *Cluster) Mend(a, b, rail int) error {
	ra, rb := c.Nodes[a].Rails[rail], c.Nodes[b].Rails[rail]
	if err := ra.Dial(packet.NodeID(b), rb.Addr()); err != nil {
		return err
	}
	return rb.Dial(packet.NodeID(a), ra.Addr())
}

// Flush implements chaos.Fabric.
func (c *Cluster) Flush(node int) { c.Nodes[node].Engine.Flush() }

// Crash implements chaos.Fabric: the node's engine and every rail close.
func (c *Cluster) Crash(node int) {
	n := c.Nodes[node]
	n.Engine.Close()
	for _, r := range n.Rails {
		r.Close()
	}
}
