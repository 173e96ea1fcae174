package chaos

import (
	"fmt"
	"sort"
	"time"

	"newmad/internal/simnet"
)

// The scenario DSL: a Script is a timed list of connection-level fault
// events against named nodes and rails, applied (Apply) to a Fabric by a
// runner that owns the clock — cluster.RunScript over sockets, the testnet
// on the discrete-event engine. Scripts are data — generated from a seed,
// validated, rendered, compared — so a scenario is reproducible
// event-for-event and diffable when it is not.

// Op enumerates the scripted connection-level events.
type Op uint8

const (
	// OpRailDown severs one rail between Node and Peer (both directions
	// observe the break, like a cut cable).
	OpRailDown Op = iota
	// OpRailHeal re-dials one rail between Node and Peer, both directions,
	// and re-pumps the engines so retained frames travel.
	OpRailHeal
	// OpPartition severs every rail between Node and Peer.
	OpPartition
	// OpHeal re-dials every rail between Node and Peer.
	OpHeal
	// OpCrash kills Node outright: engine closed, every rail closed. There
	// is no heal for a crash.
	OpCrash
	numOps
)

// heal returns the op that undoes o, for the ops that can be undone.
func (o Op) heal() (Op, bool) {
	switch o {
	case OpRailDown:
		return OpRailHeal, true
	case OpPartition:
		return OpHeal, true
	}
	return 0, false
}

// String returns the op mnemonic.
func (o Op) String() string {
	names := [...]string{"rail-down", "rail-heal", "partition", "heal", "crash"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one scripted fault at a scheduled offset from scenario start.
type Event struct {
	// At is the offset from scenario start.
	At time.Duration
	// Op selects the fault.
	Op Op
	// Node is the subject node.
	Node int
	// Peer is the other end of the affected connection(s); ignored by
	// OpCrash.
	Peer int
	// Rail is the rail index for OpRailDown/OpRailHeal; ignored otherwise.
	Rail int
}

// String renders one event.
func (e Event) String() string {
	switch e.Op {
	case OpCrash:
		return fmt.Sprintf("%8v %s n%d", e.At, e.Op, e.Node)
	case OpRailDown, OpRailHeal:
		return fmt.Sprintf("%8v %s n%d~n%d rail %d", e.At, e.Op, e.Node, e.Peer, e.Rail)
	default:
		return fmt.Sprintf("%8v %s n%d~n%d", e.At, e.Op, e.Node, e.Peer)
	}
}

// Fabric is what a scripted event acts on: the handful of connection-level
// actions a tier knows how to perform on its own transport. The emulated
// testnet severs a rail by closing the injectors' link gates; the socket
// cluster breaks and re-dials real connections.
type Fabric interface {
	// Rails returns the number of rails between every node pair.
	Rails() int
	// Sever cuts one rail between a and b, both directions. Severing an
	// already-cut or crashed side is a no-op, so scripts stay valid after
	// a crash.
	Sever(a, b, rail int)
	// Mend restores one rail between a and b, both directions.
	Mend(a, b, rail int) error
	// Flush re-pumps node's engine, so frames retained in failover queues
	// travel as soon as a path is back. No-op on a crashed node.
	Flush(node int)
	// Crash kills node outright: engine and rails. There is no heal.
	Crash(node int)
}

// Apply executes one event against fab. It is the only place the op
// semantics live: a partition is every rail of the pair, a heal mends and
// then flushes both engines, a crash has no heal.
func Apply(fab Fabric, e Event) error {
	first, last := e.Rail, e.Rail
	if e.Op == OpPartition || e.Op == OpHeal {
		first, last = 0, fab.Rails()-1
	}
	switch e.Op {
	case OpRailDown, OpPartition:
		for r := first; r <= last; r++ {
			fab.Sever(e.Node, e.Peer, r)
		}
	case OpRailHeal, OpHeal:
		for r := first; r <= last; r++ {
			if err := fab.Mend(e.Node, e.Peer, r); err != nil {
				return err
			}
		}
		fab.Flush(e.Node)
		fab.Flush(e.Peer)
	case OpCrash:
		fab.Crash(e.Node)
	}
	return nil
}

// Script is a complete scenario.
type Script struct {
	Events []Event
}

// Validate checks every event against the cluster shape it will run on.
func (s Script) Validate(nodes, rails int) error {
	for i, e := range s.Events {
		switch {
		case e.At < 0:
			return fmt.Errorf("chaos: event %d at negative offset %v", i, e.At)
		case e.Op >= numOps:
			return fmt.Errorf("chaos: event %d has unknown op %d", i, e.Op)
		case e.Node < 0 || e.Node >= nodes:
			return fmt.Errorf("chaos: event %d targets node %d of %d", i, e.Node, nodes)
		}
		if e.Op != OpCrash {
			if e.Peer < 0 || e.Peer >= nodes || e.Peer == e.Node {
				return fmt.Errorf("chaos: event %d targets peer %d (node %d, cluster of %d)", i, e.Peer, e.Node, nodes)
			}
		}
		if e.Op == OpRailDown || e.Op == OpRailHeal {
			if e.Rail < 0 || e.Rail >= rails {
				return fmt.Errorf("chaos: event %d targets rail %d of %d", i, e.Rail, rails)
			}
		}
	}
	return nil
}

// Sorted returns the events ordered by At (stable, so same-instant events
// keep their authored order).
func (s Script) Sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String renders the whole scenario, one event per line.
func (s Script) String() string {
	out := ""
	for _, e := range s.Sorted() {
		out += e.String() + "\n"
	}
	return out
}

// FlapConfig parameterizes RollingFlaps.
type FlapConfig struct {
	// Nodes and Rails describe the cluster the script will run on.
	Nodes, Rails int
	// Flaps is how many down/heal cycles to schedule.
	Flaps int
	// Every is the interval between consecutive flap starts.
	Every time.Duration
	// DownFor is how long each flapped rail stays down.
	DownFor time.Duration
	// Start offsets the first flap from scenario start.
	Start time.Duration
}

// RollingFlaps generates a deterministic rolling-flap scenario from seed:
// every Every, one (node, peer, rail) edge — drawn from the seeded RNG —
// goes down and heals DownFor later. The same seed and config produce the
// identical event list, which is what makes a chaotic run replayable.
func RollingFlaps(seed uint64, cfg FlapConfig) (Script, error) {
	if cfg.Nodes < 2 || cfg.Rails < 1 || cfg.Flaps < 0 || cfg.Every <= 0 || cfg.DownFor <= 0 {
		return Script{}, fmt.Errorf("chaos: invalid flap config %+v", cfg)
	}
	rng := simnet.NewRNG(seed)
	var s Script
	at := cfg.Start
	for i := 0; i < cfg.Flaps; i++ {
		node := rng.Intn(cfg.Nodes)
		peer := rng.Intn(cfg.Nodes - 1)
		if peer >= node {
			peer++
		}
		rail := rng.Intn(cfg.Rails)
		s.Events = append(s.Events,
			Event{At: at, Op: OpRailDown, Node: node, Peer: peer, Rail: rail},
			Event{At: at + cfg.DownFor, Op: OpRailHeal, Node: node, Peer: peer, Rail: rail},
		)
		at += cfg.Every
	}
	if err := s.Validate(cfg.Nodes, cfg.Rails); err != nil {
		return Script{}, err
	}
	return s, nil
}
