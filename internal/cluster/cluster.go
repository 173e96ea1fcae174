// Package cluster boots N optimizer engines over real TCP mesh sockets —
// the wall-clock counterpart of the simulated rigs in internal/exp.
//
// Where drivers.NewCluster assembles simulated NICs on a discrete-event
// engine, cluster.New assembles one or more drivers.Mesh rail endpoints,
// one core.Engine and one mad.Session per node on a shared wall-clock
// runtime, with every pair of nodes connected over genuine TCP — one
// connection per rail. The result is the paper's full Figure-1 stack —
// collect layer, optimizing scheduler, transfer layer — replicated N ways
// over an actual transport, which is what the telemetry example
// (examples/monitor), the chaos scenario (ChaosScenario), wall-clock
// experiments (exp X2, X4) and failure tests drive. Multi-rail nodes
// (Options.Rails) give each engine several independent TCP rails per peer,
// each with its own capability record, so heterogeneous-NIC scheduling runs
// over real sockets.
package cluster

import (
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/telemetry"
	"newmad/internal/trace"
)

// Options configures a wall-clock mesh cluster.
type Options struct {
	// Nodes is the cluster size (>= 2).
	Nodes int
	// Rails optionally gives the per-node rail profiles: every node runs
	// one mesh endpoint (one TCP connection per peer) per profile, and its
	// engine schedules over all of them. Profile names must be distinct
	// (caps.RailProfiles derives uniquely named variants of one base).
	// With more than one rail each engine schedules them with its own
	// capability-aware strategy.ScheduledRail, so a rail retune on one node
	// stays on that node. Empty means a single caps.TCP rail (the
	// kernel-TCP profile).
	Rails []caps.Caps
	// Bundle names the strategy bundle each engine runs; default
	// "aggregate" (the paper's optimizing configuration).
	Bundle string

	// Deprecated: ignored. The engine has one send side.
	Shards int

	// Chaos, when non-nil, wraps every rail of every node in a chaos
	// frame-fault injector (internal/chaos): per-rail RNGs forked from
	// Seed by rail identity apply Rules on the receive path.
	Chaos *ChaosPlan

	// OnPeerDown, when set, observes every rail-level peer-down event
	// across the cluster (node observing, rail index, peer observed down).
	OnPeerDown func(node packet.NodeID, rail int, peer packet.NodeID)

	// OnDeliver, when set, observes every delivery before it reaches the
	// node's mad session (for counting in experiments).
	OnDeliver func(node packet.NodeID, d proto.Deliverable)

	// Raw stops deliveries at OnDeliver instead of routing them into the
	// mad session. Raw-packet workloads (exp X2) need it: their synthetic
	// flow ids do not correspond to mad channels.
	Raw bool

	// Telemetry, when true, gives every node an HTTP observability
	// endpoint on an ephemeral loopback port (Node.Telemetry, address via
	// Node.Telemetry.Addr()): Prometheus text and JSON snapshots of the
	// whole mesh (the registry is shared, so any node answers for any
	// other), plus net/http/pprof and expvar. The shared registry is
	// exposed as Cluster.Registry.
	Telemetry bool
	// TraceRing, when positive, attaches a trace.Recorder of that
	// capacity to every engine (Node.Trace) — the flight-recorder ring
	// that trace.DumpAnomaly spools to disk when something goes wrong.
	TraceRing int
}

// Node is one member of the cluster: its transport endpoints (one per
// rail), its optimizer, its packing session, and its private metric set.
type Node struct {
	// Rails holds every rail endpoint, in the engine's rail order.
	Rails   []*drivers.Mesh
	Engine  *core.Engine
	Session *mad.Session
	Stats   *stats.Set
	// Trace is the node's flight-recorder ring (Options.TraceRing).
	Trace *trace.Recorder
	// Telemetry is the node's HTTP observability server (Options.Telemetry).
	Telemetry *telemetry.Server
}

// Cluster is N Figure-1 stacks wired all-to-all over real TCP sockets.
type Cluster struct {
	Runtime *simnet.RealRuntime
	Nodes   []*Node
	// Registry aggregates every node's engine when Options.Telemetry is
	// set; nil otherwise.
	Registry *telemetry.Registry
}

// New boots the cluster: every node listens (once per rail), dials every
// peer, and runs its own engine and session against the shared wall-clock
// runtime. On error, everything already started is torn down.
func New(o Options) (*Cluster, error) {
	if o.Nodes < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 nodes, got %d", o.Nodes)
	}
	if o.Bundle == "" {
		o.Bundle = "aggregate"
	}
	// The rail profiles every node runs, in the engine's rail order.
	profiles := caps.EngineOrder(o.Rails)
	if len(profiles) == 0 {
		profiles = []caps.Caps{caps.TCP}
	}

	c := &Cluster{Runtime: simnet.NewRealRuntime()}
	fail := func(err error) (*Cluster, error) {
		c.Close()
		return nil, err
	}

	// Transport first: all listeners up, then the full dial mesh (every
	// rail separately), so no engine ever sees a partially connected
	// fabric.
	for i := 0; i < o.Nodes; i++ {
		rails, err := drivers.NewMeshRails(packet.NodeID(i), profiles, drivers.TCP)
		if err != nil {
			return fail(err)
		}
		c.Nodes = append(c.Nodes, &Node{Rails: rails, Stats: &stats.Set{}})
	}
	for r := range profiles {
		for i, a := range c.Nodes {
			for j, b := range c.Nodes {
				if i == j {
					continue
				}
				if err := a.Rails[r].Dial(b.Rails[r].Node(), b.Rails[r].Addr()); err != nil {
					return fail(err)
				}
			}
		}
	}

	// One engine + session per node, each with its own strategy instance
	// (bundles carry per-node adaptive state) and metric set.
	for i, n := range c.Nodes {
		node := packet.NodeID(i)
		b, err := strategy.New(o.Bundle)
		if err != nil {
			return fail(err)
		}
		if len(profiles) > 1 {
			b.Rail = strategy.NewScheduledRail(profiles)
		}
		n := n
		sess, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			wrapped := deliver
			if o.OnDeliver != nil || o.Raw {
				wrapped = func(d proto.Deliverable) {
					if o.OnDeliver != nil {
						o.OnDeliver(node, d)
					}
					if !o.Raw {
						deliver(d)
					}
				}
			}
			rails := make([]drivers.Driver, len(n.Rails))
			for k, m := range n.Rails {
				rails[k] = m
			}
			if o.Chaos != nil {
				for k, m := range n.Rails {
					inj, err := chaos.RailInjector(m, c.Runtime, simnet.NewRNG(o.Chaos.Seed), k, o.Chaos.Rules...)
					if err != nil {
						return nil, err
					}
					rails[k] = inj
				}
			}
			var onPeerDown func(rail int, peer packet.NodeID)
			if o.OnPeerDown != nil {
				onPeerDown = func(rail int, peer packet.NodeID) { o.OnPeerDown(node, rail, peer) }
			}
			if o.TraceRing > 0 {
				n.Trace = trace.New(o.TraceRing)
			}
			return core.New(node, core.Options{
				Bundle:     b,
				Runtime:    c.Runtime,
				Rails:      rails,
				Deliver:    wrapped,
				OnPeerDown: onPeerDown,
				Stats:      n.Stats,
				Trace:      n.Trace,
			})
		})
		if err != nil {
			return fail(err)
		}
		n.Session = sess
		n.Engine = sess.Engine()
	}

	// Observability last, once every engine exists: one shared registry,
	// one HTTP endpoint per node whose parameterless /metrics answers for
	// that node.
	if o.Telemetry {
		c.Registry = telemetry.NewRegistry()
		for i, n := range c.Nodes {
			c.Registry.Register(telemetry.Source{
				Node:   packet.NodeID(i),
				Role:   "node",
				Engine: n.Engine,
				Stats:  n.Stats,
			})
		}
		for i, n := range c.Nodes {
			n.Telemetry = telemetry.NewServer(c.Registry, packet.NodeID(i))
			if _, err := n.Telemetry.Listen("127.0.0.1:0"); err != nil {
				return fail(err)
			}
		}
	}
	return c, nil
}

// Session returns node n's packing session.
func (c *Cluster) Session(n packet.NodeID) *mad.Session { return c.Nodes[n].Session }

// Engine returns node n's optimizer engine.
func (c *Cluster) Engine(n packet.NodeID) *core.Engine { return c.Nodes[n].Engine }

// Len returns the cluster size.
func (c *Cluster) Len() int { return len(c.Nodes) }

// Close stops every engine and closes every transport endpoint. It is safe
// on a partially constructed cluster and idempotent.
func (c *Cluster) Close() {
	for _, n := range c.Nodes {
		if n.Telemetry != nil {
			n.Telemetry.Close()
		}
	}
	for _, n := range c.Nodes {
		if n.Engine != nil {
			n.Engine.Close()
		}
	}
	for _, n := range c.Nodes {
		for _, r := range n.Rails {
			r.Close()
		}
	}
}
