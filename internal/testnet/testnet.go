package testnet

import (
	"errors"
	"fmt"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/telemetry"
	"newmad/internal/trace"
	"newmad/internal/workload"
)

// Net is a booted emulated network: one discrete-event engine carrying
// every node's NICs, optimizer and workload, with the chaos schedule
// resolved and planted. Everything runs on the single simulation goroutine,
// so no state here needs locking.
type Net struct {
	M      *Manifest
	Eng    *simnet.Engine
	Stats  *stats.Set
	Nodes  []*Node
	Groups map[string][]int
	// Script is the resolved concrete chaos schedule; Trace records its
	// execution. Two same-seed runs must produce traces with an empty Diff.
	Script chaos.Script
	Trace  *chaos.Trace
	// Registry aggregates every live engine; Snapshots accumulates the
	// periodic fleet roll-ups (manifest telemetry.snapshot_ms) plus the
	// final one Run always takes.
	Registry  *telemetry.Registry
	Snapshots []telemetry.FleetSnapshot

	flows     []workload.FlowSpec
	submitted int
	throttled int
	// refused counts a flow's refused submission attempts. A refusal
	// never consumes a seq (the workload driver assigns them lazily), so
	// a flow with R refusals delivers the contiguous seqs [0, Count-R).
	refused   map[packet.FlowID]int
	delivered map[flowKey]int
	misrouted int
	// misroutedAt remembers which nodes saw misrouted deliveries, for the
	// anomaly spool's "involved nodes" set.
	misroutedAt map[int]bool
	recorders   map[int]*trace.Recorder
}

// Node is one emulated network member.
type Node struct {
	ID     packet.NodeID
	Role   string
	Engine *core.Engine
	// Injectors is the node's fault layer, one per rail: the frame rules
	// the manifest's drop_pct means, and the link gates the chaos script
	// operates.
	Injectors []*chaos.Injector
	crashed   bool
}

// flowKey identifies one scheduled message; flow IDs are globally unique
// across clauses, so (flow, seq) names exactly one submission.
type flowKey struct {
	flow packet.FlowID
	seq  int
}

// Build boots the topology a manifest describes: role-blocked node IDs,
// one fabric per rail, one NIC per (node, rail) wrapped in a chaos.Injector
// — the same fault layer the socket tier runs, here scheduling on the
// virtual clock —, one optimizer engine per node, the workload expanded and
// scheduled, and the chaos script resolved and planted on the virtual
// clock.
func Build(m *Manifest) (*Net, error) { return build(m, m.FaultRules()) }

// build is Build with the per-frame fault rules given explicitly.
func build(m *Manifest, rules []chaos.Rule) (*Net, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := &Net{
		M:           m,
		Eng:         simnet.NewEngine(),
		Stats:       &stats.Set{},
		Groups:      m.Groups(),
		Trace:       &chaos.Trace{},
		Registry:    telemetry.NewRegistry(),
		refused:     make(map[packet.FlowID]int),
		delivered:   make(map[flowKey]int),
		misroutedAt: make(map[int]bool),
		recorders:   make(map[int]*trace.Recorder),
	}
	// Every stochastic decision forks off this one generator by key, so a
	// stream's identity — not the order anything was built in — determines
	// its draws.
	base := simnet.NewRNG(m.Seed)

	fabrics := make([]*drivers.Fabric, m.Rails)
	for r := range fabrics {
		fabrics[r] = drivers.NewFabric(fmt.Sprintf("rail%d", r))
	}

	mem := memsim.DefaultModel()
	quotas := m.Quotas()
	total := m.TotalNodes()
	n.Nodes = make([]*Node, total)
	for _, role := range m.rolesByName() {
		profile, _ := caps.Lookup(role.Profile) // validated
		if role.Channels > 0 {
			profile.Channels = role.Channels
		}
		railCaps := make([]caps.Caps, m.Rails)
		for r := range railCaps {
			railCaps[r] = profile.Rail(r)
		}
		// The rail policy's table must use the engine's rail order, not
		// the fabric order the NICs are built in.
		sorted := caps.EngineOrder(railCaps)

		for _, id := range n.Groups[role.Name] {
			node := &Node{ID: packet.NodeID(id), Role: role.Name}
			rails := make([]drivers.Driver, m.Rails)
			node.Injectors = make([]*chaos.Injector, m.Rails)
			for r := 0; r < m.Rails; r++ {
				sim, err := drivers.NewSim(n.Eng, fabrics[r], node.ID, railCaps[r], mem, n.Stats)
				if err != nil {
					return nil, fmt.Errorf("testnet: node %d rail %d: %w", id, r, err)
				}
				inj, err := chaos.RailInjector(sim, n.Eng, base, r, rules...)
				if err != nil {
					return nil, fmt.Errorf("testnet: node %d rail %d: %w", id, r, err)
				}
				node.Injectors[r] = inj
				rails[r] = inj
			}

			bundle, err := strategy.New(m.Engine.Bundle)
			if err != nil {
				return nil, err
			}
			if m.Rails > 1 {
				bundle.Rail = strategy.NewScheduledRail(sorted)
			}
			nodeID := node.ID
			var rec *trace.Recorder
			if m.Telemetry.TraceRing > 0 {
				rec = trace.New(m.Telemetry.TraceRing)
				n.recorders[id] = rec
			}
			eng, err := core.New(nodeID, core.Options{
				Bundle:      bundle,
				Runtime:     n.Eng,
				Rails:       rails,
				Deliver:     func(d proto.Deliverable) { n.record(nodeID, d) },
				Knobs:       m.Engine.knobs(),
				RdvRetry:    simnet.Duration(m.Engine.RdvRetryUS) * simnet.Microsecond,
				RdvRetryMax: m.Engine.RdvRetryMax,
				Quotas:      quotas,
				Stats:       n.Stats,
				Trace:       rec,
			})
			if err != nil {
				return nil, fmt.Errorf("testnet: node %d: %w", id, err)
			}
			node.Engine = eng
			n.Nodes[id] = node
			// The stats set is fleet-shared (registered once below), so
			// per-node sources carry only the engine's private surface.
			n.Registry.Register(telemetry.Source{
				Node:   nodeID,
				Role:   role.Name,
				Engine: eng,
			})
		}
	}
	n.Registry.SetFleetStats(n.Stats)

	if m.Telemetry.SnapshotMS > 0 {
		n.scheduleSnapshots(simnet.Duration(m.Telemetry.SnapshotMS) * simnet.Millisecond)
	}

	if err := n.scheduleWorkload(base); err != nil {
		return nil, err
	}
	if err := n.scheduleChaos(base); err != nil {
		return nil, err
	}
	return n, nil
}

// scheduleWorkload expands the traffic clauses into flows and plants every
// submission on the virtual clock. Flow IDs are assigned by a running
// counter in clause order, so (flow, seq) keys are globally unique.
func (n *Net) scheduleWorkload(base *simnet.RNG) error {
	engines := make(map[packet.NodeID]*core.Engine, len(n.Nodes))
	for _, node := range n.Nodes {
		engines[node.ID] = node.Engine
	}
	drv := workload.NewDriver(n.Eng, engines, base.ForkString("workload.driver").Uint64())
	drv.OnError = func(spec workload.FlowSpec, seq int, err error) {
		// Submissions refused by admission control or a crashed node's
		// engine are scripted outcomes, not bugs; both land in the refused
		// tally and are excluded from loss accounting. Throttles are
		// counted separately — a flood soak asserts they happened.
		if errors.Is(err, core.ErrThrottled) || errors.Is(err, core.ErrQuotaExceeded) {
			n.throttled++
		}
		n.refused[spec.Flow]++
	}

	tenants := make(map[string]packet.TenantID, len(n.M.Roles))
	for _, r := range n.M.Roles {
		tenants[r.Name] = packet.TenantID(r.Tenant)
	}
	nextFlow := packet.FlowID(1)
	for i, w := range n.M.Workload {
		pattern, _ := workload.ParsePattern(w.Pattern)
		size, _ := w.Size.dist()
		arrival, _ := w.Arrival.proc()
		class, _ := parseClass(w.Class) // all validated at load
		rt := workload.RoleTraffic{
			Pattern:  pattern,
			From:     nodeIDs(n.Groups[w.From]),
			To:       nodeIDs(n.Groups[w.To]),
			BaseFlow: nextFlow,
			Class:    class,
			Tenant:   tenants[w.From],
			Size:     size,
			Arrival:  arrival,
			Msgs:     w.Msgs,
			Start:    simnet.Duration(w.StartUS) * simnet.Microsecond,
		}
		flows, err := rt.Expand(base.ForkString(fmt.Sprintf("workload/%d", i)))
		if err != nil {
			return fmt.Errorf("testnet: workload %d (%s): %w", i, w.Name, err)
		}
		for _, f := range flows {
			drv.Add(f)
			n.submitted += f.Count
		}
		n.flows = append(n.flows, flows...)
		nextFlow += packet.FlowID(len(flows))
	}
	return nil
}

// scheduleSnapshots plants a self-rescheduling fleet sweep on the virtual
// clock. The tick re-arms itself only while other events remain pending —
// Pending() excludes the executing tick — so the sweep follows the run's
// activity without keeping the heap alive forever (the drain contract of
// Run would otherwise never hold).
func (n *Net) scheduleSnapshots(every simnet.Duration) {
	var tick func()
	tick = func() {
		n.Snapshots = append(n.Snapshots, n.Registry.Fleet())
		if n.Eng.Pending() > 0 {
			n.Eng.After(every, "testnet.snapshot", tick)
		}
	}
	n.Eng.After(every, "testnet.snapshot", tick)
}

// scheduleChaos resolves the group script against the topology and plants
// each event at its virtual time. Events are planted in Sorted order, so
// same-instant events execute in authored order (the event heap breaks
// timestamp ties by scheduling sequence).
func (n *Net) scheduleChaos(base *simnet.RNG) error {
	script, err := n.M.GroupChaos().Resolve(n.Groups, n.M.Rails, base.ForkString("chaos"))
	if err != nil {
		return err
	}
	if err := script.Validate(len(n.Nodes), n.M.Rails); err != nil {
		return err
	}
	n.Script = script
	for _, e := range script.Sorted() {
		e := e
		n.Eng.At(simnet.Time(0).Add(simnet.FromWall(e.At)), "testnet.chaos", func() {
			_ = chaos.Apply(n, e) // only Mend can fail, and Net's cannot
			n.Trace.Record(e)
		})
	}
	return nil
}

// Net is the chaos.Fabric of the emulated tier. Severing acts on the
// send-side link gates of both endpoints, never on the fabric: frames
// already in flight still arrive, so a link cut delays traffic but cannot
// lose it.

// Rails implements chaos.Fabric.
func (n *Net) Rails() int { return n.M.Rails }

// Sever implements chaos.Fabric.
func (n *Net) Sever(a, b, rail int) {
	n.Nodes[a].Injectors[rail].SetPeerDown(packet.NodeID(b), true)
	n.Nodes[b].Injectors[rail].SetPeerDown(packet.NodeID(a), true)
}

// Mend implements chaos.Fabric; reopening a gate cannot fail.
func (n *Net) Mend(a, b, rail int) error {
	n.Nodes[a].Injectors[rail].SetPeerDown(packet.NodeID(b), false)
	n.Nodes[b].Injectors[rail].SetPeerDown(packet.NodeID(a), false)
	return nil
}

// Flush implements chaos.Fabric (a crashed node's closed engine ignores it).
func (n *Net) Flush(node int) { n.Nodes[node].Engine.Flush() }

// Crash implements chaos.Fabric.
func (n *Net) Crash(node int) {
	if nd := n.Nodes[node]; !nd.crashed {
		nd.crashed = true
		nd.Engine.Close()
	}
}

// record counts one delivery.
func (n *Net) record(node packet.NodeID, d proto.Deliverable) {
	if d.Pkt.Dst != node {
		n.misrouted++
		n.misroutedAt[int(node)] = true
		return
	}
	n.delivered[flowKey{d.Pkt.Flow, d.Pkt.Seq}]++
}

// Result is the delivery and replay accounting of one run.
type Result struct {
	Name  string
	Nodes int
	Rails int
	// Submitted counts scheduled submissions; Refused the subset rejected
	// by crashed engines or admission control. Throttled is the
	// admission-control slice of Refused (quota/rate refusals) — never
	// silent, never counted as Lost.
	Submitted int
	Refused   int
	Throttled int
	// Delivered counts deliveries including duplicates; Duplicates the
	// excess over exactly-once.
	Delivered  int
	Duplicates int
	// Lost counts undelivered messages between two never-crashed nodes —
	// the number that must be zero. CrashLost counts undelivered messages
	// with a crashed endpoint, which are scripted casualties.
	Lost      int
	CrashLost int
	// Misrouted counts deliveries at the wrong node (always a bug).
	Misrouted int
	// CtrlDropped counts the frames the injectors' Drop rules discarded
	// (the manifest's drop_pct only ever drops control frames).
	CtrlDropped uint64
	// Events and End describe the simulation run; Drained reports whether
	// the event heap emptied within the manifest's MaxEvents budget.
	Events  uint64
	End     simnet.Time
	Drained bool
	// SpoolDir is where the anomaly dump landed (empty when the run was
	// clean or no spool was configured). Result stays comparable (the
	// seed-replay battery compares whole values), so the fleet telemetry
	// roll-up lives on Net.Snapshots / Net.Fleet, not here.
	SpoolDir string
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d nodes x %d rails, %d submitted, %d refused (%d throttled), %d delivered, %d dup, %d lost, %d crash-lost, %d ctrl-dropped, %d events, end %v, drained %v",
		r.Name, r.Nodes, r.Rails, r.Submitted, r.Refused, r.Throttled, r.Delivered,
		r.Duplicates, r.Lost, r.CrashLost, r.CtrlDropped, r.Events, r.End, r.Drained)
}

// Run executes the simulation to completion (or the MaxEvents guard) and
// returns the accounting.
func (n *Net) Run() *Result {
	executed, drained := n.Eng.RunLimit(n.M.MaxEvents)
	res := &Result{
		Name:      n.M.Name,
		Nodes:     len(n.Nodes),
		Rails:     n.M.Rails,
		Submitted: n.submitted,
		Throttled: n.throttled,
		Misrouted: n.misrouted,
		Events:    executed,
		End:       n.Eng.Now(),
		Drained:   drained,
	}
	for _, node := range n.Nodes {
		for _, inj := range node.Injectors {
			res.CtrlDropped += inj.Injected(chaos.Drop)
		}
	}
	// involved collects the endpoints of anomalous flows for the spool.
	involved := make(map[int]bool)
	for _, f := range n.flows {
		srcCrashed := n.Nodes[f.Src].crashed
		dstCrashed := n.Nodes[f.Dst].crashed
		// Refused attempts consumed no seq, so the flow's accepted
		// packets are exactly the contiguous seqs below Count−refused;
		// each must have been delivered exactly once.
		res.Refused += n.refused[f.Flow]
		for seq := 0; seq < f.Count-n.refused[f.Flow]; seq++ {
			cnt := n.delivered[flowKey{f.Flow, seq}]
			res.Delivered += cnt
			switch {
			case cnt == 0 && (srcCrashed || dstCrashed):
				res.CrashLost++
			case cnt == 0:
				res.Lost++
				involved[int(f.Src)] = true
				involved[int(f.Dst)] = true
			default:
				if cnt > 1 {
					res.Duplicates += cnt - 1
					involved[int(f.Src)] = true
					involved[int(f.Dst)] = true
				}
			}
		}
	}
	n.Snapshots = append(n.Snapshots, n.Registry.Fleet())

	if t := n.M.Telemetry; t.SpoolDir != "" && (res.Lost > 0 || res.Duplicates > 0 || res.Misrouted > 0) {
		for id := range n.misroutedAt {
			involved[id] = true
		}
		dump := make(map[int]*trace.Recorder, len(involved))
		for id := range involved {
			if r := n.recorders[id]; r != nil {
				dump[id] = r
			}
		}
		reason := fmt.Sprintf("lost%d-dup%d-misrouted%d", res.Lost, res.Duplicates, res.Misrouted)
		if dir, err := trace.DumpAnomaly(t.SpoolDir, reason, dump, t.SpoolLastN); err == nil {
			res.SpoolDir = dir
		}
	}
	return res
}

// Fleet returns the latest fleet telemetry roll-up — the final one after
// Run, or a live roll-up mid-run when no snapshot has been taken yet.
func (n *Net) Fleet() telemetry.FleetSnapshot {
	if len(n.Snapshots) > 0 {
		return n.Snapshots[len(n.Snapshots)-1]
	}
	return n.Registry.Fleet()
}

// Close shuts down every engine (idempotent; crashed nodes are already
// closed).
func (n *Net) Close() {
	for _, node := range n.Nodes {
		if node != nil && !node.crashed {
			node.Engine.Close()
		}
	}
}

func nodeIDs(members []int) []packet.NodeID {
	out := make([]packet.NodeID, len(members))
	for i, m := range members {
		out[i] = packet.NodeID(m)
	}
	return out
}
