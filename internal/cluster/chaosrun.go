package cluster

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/telemetry"
	"newmad/internal/trace"
)

// Chaos integration: frame-fault injectors on every rail (ChaosPlan), the
// runner that executes a chaos.Script against the live cluster, and the
// one socket chaos scenario built on it (ChaosScenario: the -race soak
// asserts on it, examples/chaos prints it). Deterministic faults from one
// seed, recovery by the engines under test.

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
// event-for-event (the replay guarantee ChaosScenario's soak asserts).
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

// ChaosResult is one run of the chaos scenario (ChaosScenario).
type ChaosResult struct {
	// Script is the scenario the seed generated; Trace is the schedule
	// that executed. RunScript records an event only after it ran, so a
	// trace equal to the script proves the whole schedule ran.
	Script chaos.Script
	Trace  *chaos.Trace
	// Msgs and Bytes size the exactly-once set: the conglomerate between
	// the survivors, nodes 0 and 1.
	Msgs, Bytes int
	// Completion is wall-clock time from the first submit until that set
	// was complete, checked from the end of the script on (or until
	// patience ran out).
	Completion time.Duration
	// Lost and Duplicated account that set: 0 and 0 on a pass.
	Lost, Duplicated int
	// Bystander holds, for each of node 2's flows, how many times each
	// seq was delivered, indexed by seq up to the highest one delivered.
	// The crash cuts the flows short; what did arrive must be a prefix
	// from seq 0 with each seq once, so every entry reads 1.
	Bystander map[packet.FlowID][]int
	// PeerDowns counts rail-level peer-down events; Failovers and
	// Reclaimed are the survivors' frames re-routed by the engines and
	// handed back by dying rails.
	PeerDowns, Failovers, Reclaimed uint64
	// StillDown counts the 0~1 rail ends that report their peer down
	// once delivery has settled: every scripted fault there was healed.
	StillDown int
	// Fleet is the telemetry roll-up across the three engines.
	Fleet telemetry.FleetSnapshot
	// SpoolDir names the flight-recorder dump written when delivery broke
	// (empty on a clean run).
	SpoolDir string
}

// The chaos scenario's shape: the conglomerate the survivors exchange,
// and the flap schedule on their rails. Bulk and small frames take
// different channels of a rail but share its paced wire, so a small frame
// waits behind each bulk's serialization; the small stream is long enough
// to keep one waiting through the whole schedule, and every break then has
// frames aboard to reclaim. Flap k holds [flapStart+k·flapEvery, +flapDown);
// flapDown < flapEvery/2 leaves room for the partition between the first
// two flaps.
var chaosLoad = Conglomerate{SmallMsgs: 6000, SmallSize: 256, BulkMsgs: 16, BulkSize: 512 << 10}

const (
	chaosFlaps = 3
	flapStart  = 30 * time.Millisecond
	flapEvery  = 60 * time.Millisecond
	flapDown   = 25 * time.Millisecond
)

// chaosScript is the scenario for seed: rolling flaps on the 0~1 rails,
// one full 0~1 partition and heal between the first two flaps, and node
// 2's crash in the middle of the flap sequence.
func chaosScript(seed uint64) (chaos.Script, error) {
	s, err := chaos.RollingFlaps(seed, chaos.FlapConfig{
		Nodes: 2, Rails: 2, Flaps: chaosFlaps,
		Start: flapStart, Every: flapEvery, DownFor: flapDown,
	})
	if err != nil {
		return chaos.Script{}, err
	}
	part := flapStart + flapEvery/2
	s.Events = append(s.Events,
		chaos.Event{At: part, Op: chaos.OpPartition, Node: 0, Peer: 1},
		chaos.Event{At: part + flapDown, Op: chaos.OpHeal, Node: 0, Peer: 1},
		chaos.Event{At: flapStart + chaosFlaps*flapEvery/2, Op: chaos.OpCrash, Node: 2},
	)
	return s, nil
}

// ChaosScenario runs the socket chaos scenario seed names and reports its
// delivery and fault accounting. Three nodes carry two TCP rails each,
// wire-paced at 40 MB/s (caps.EmulateWire), so frames genuinely occupy a
// rail when it breaks and reclaim-and-failover, not luck, is what keeps
// delivery exactly-once. Nodes 0 and 1 run the conglomerate both ways
// under the script; node 2 sends small messages to both until the script
// crashes it. The script, and so the executed trace, is a pure function
// of seed: a chaotic failure replays event-for-event.
//
// Broken delivery is a result, not an error: every node's flight-recorder
// ring is spooled to disk (trace.DumpAnomaly) and the result says where.
func ChaosScenario(seed uint64) (ChaosResult, error) {
	script, err := chaosScript(seed)
	if err != nil {
		return ChaosResult{}, err
	}
	type key struct {
		src  packet.NodeID
		flow packet.FlowID
		seq  int
	}
	var mu sync.Mutex
	delivered := map[key]int{}
	var survivors, downs atomic.Int64

	rail := caps.TCP
	rail.Name = "gige"
	rail.Bandwidth = 40e6
	rail.EmulateWire = true
	c, err := New(Options{
		Nodes:     3,
		Rails:     caps.RailProfiles(rail, 2),
		Raw:       true,
		TraceRing: 512, // the anomaly spool's evidence
		OnDeliver: func(_ packet.NodeID, d proto.Deliverable) {
			mu.Lock()
			delivered[key{d.Src, d.Pkt.Flow, d.Pkt.Seq}]++
			mu.Unlock()
			if d.Src != 2 {
				survivors.Add(1)
			}
		},
		OnPeerDown: func(packet.NodeID, int, packet.NodeID) { downs.Add(1) },
	})
	if err != nil {
		return ChaosResult{}, err
	}
	defer c.Close()

	reg := telemetry.NewRegistry()
	for n, role := range []string{"survivor", "survivor", "bystander"} {
		reg.Register(telemetry.Source{Node: packet.NodeID(n), Role: role, Engine: c.Nodes[n].Engine})
	}

	start := time.Now()
	pairDone := chaosLoad.Start(c)
	// The bystander sends until the crash closes its engine (Submit then
	// fails, as it should).
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		eng := c.Engine(2)
		for seq := 0; ; seq++ {
			for d := packet.NodeID(0); d < 2; d++ {
				if eng.Submit(&packet.Packet{
					Flow: packet.FlowID(50 + d), Msg: packet.MsgID(seq), Seq: seq, Last: true,
					Src: 2, Dst: d, Class: packet.ClassSmall,
					Payload: make([]byte, chaosLoad.SmallSize),
				}) != nil {
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	res := ChaosResult{Script: script, Trace: &chaos.Trace{}, Msgs: chaosLoad.Msgs(), Bytes: chaosLoad.Bytes()}
	if err := c.RunScript(script, res.Trace); err != nil {
		c.Close() // fails the submitters' next Submit: wait them out
		<-bgDone
		pairDone()
		return ChaosResult{}, err
	}
	<-bgDone
	pairDone() // a Submit refused mid-flap shows up as a lost payload below

	// Keep nudging the survivors' Nagle timers until the set completes or
	// patience runs out.
	for deadline := time.Now().Add(90 * time.Second); survivors.Load() < int64(res.Msgs) && time.Now().Before(deadline); {
		c.Engine(0).Flush()
		c.Engine(1).Flush()
		time.Sleep(10 * time.Millisecond)
	}
	res.Completion = time.Since(start)
	res.PeerDowns = uint64(downs.Load())
	var m core.Metrics
	for n := packet.NodeID(0); n < 2; n++ {
		c.Engine(n).MetricsInto(&m)
		res.Failovers += m.Failovers
		res.Reclaimed += m.FramesReclaimed
		for _, r := range c.Nodes[n].Rails {
			if r.PeerDown(1 - n) {
				res.StillDown++
			}
		}
	}

	res.Lost = res.Msgs
	res.Bystander = map[packet.FlowID][]int{}
	mu.Lock()
	for k, n := range delivered {
		if k.src != 2 {
			res.Lost--
			res.Duplicated += n - 1
			continue
		}
		seqs := res.Bystander[k.flow]
		for len(seqs) <= k.seq {
			seqs = append(seqs, 0)
		}
		seqs[k.seq] = n
		res.Bystander[k.flow] = seqs
	}
	mu.Unlock()
	res.Fleet = reg.Fleet()

	broken := res.Lost != 0 || res.Duplicated != 0
	for _, seqs := range res.Bystander {
		for _, n := range seqs {
			broken = broken || n != 1
		}
	}

	if broken {
		recs := make(map[int]*trace.Recorder, len(c.Nodes))
		for i, node := range c.Nodes {
			recs[i] = node.Trace
		}
		reason := fmt.Sprintf("chaos-seed%d-lost%d-dup%d", seed, res.Lost, res.Duplicated)
		if dir, derr := trace.DumpAnomaly(os.TempDir(), reason, recs, 256); derr == nil {
			res.SpoolDir = dir
		}
	}
	return res, nil
}
