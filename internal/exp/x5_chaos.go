package exp

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/cluster"
	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/stats"
	"newmad/internal/telemetry"
	"newmad/internal/trace"
)

// X5 — chaos addendum (not a claim of the paper; added with the fault
// injection subsystem).
//
// The paper's engine exists to keep NICs busy; an engine worth deploying
// must stay *correct* while the NICs misbehave. X5 runs the conglomerate
// workload (small streams + rendezvous bulks, both directions) between two
// 2-rail nodes while a seed-generated script of rolling rail flaps plays
// out underneath and a third node's background traffic gets cut off by a
// scripted crash. The measured claims:
//
//   - exactly-once: every payload between the surviving nodes is delivered
//     exactly once — failover re-routes frames reclaimed from dead rails,
//     and the reassembler's dedupe absorbs the ambiguous re-sends;
//   - graceful degradation: the run completes in bounded wall-clock time
//     despite the fault schedule;
//   - replayability: the executed fault schedule is identical,
//     event-for-event, when the scenario is re-run from the same seed —
//     the property that makes a chaotic failure debuggable.

// X5Result is one chaos run's outcome.
type X5Result struct {
	Msgs  int // payloads between the surviving pair (the exactly-once set)
	Bytes int
	// Completion is wall-clock time from first submit to last delivery of
	// the surviving-pair set.
	Completion time.Duration
	// Lost and Duplicated summarize delivery accounting (0 and 0 on pass).
	Lost, Duplicated int
	// Fault/recovery accounting.
	PeerDowns uint64 // rail-level peer-down events observed
	Failovers uint64 // frames re-routed by the engines
	Reclaimed uint64 // frames handed back by dying rails
	// Trace is the executed fault schedule; two runs from one seed must
	// produce Equal traces.
	Trace *chaos.Trace
	// QwaitP50Us/QwaitP99Us are the survivors' queue-wait quantiles (µs):
	// how long payloads sat in the backlog while rails flapped underneath.
	// Queue-wait is the span that survives the real TCP wire — the
	// end-to-end stamp is in-memory-only and never encoded (see
	// internal/core span taxonomy).
	QwaitP50Us, QwaitP99Us float64
	// Fleet is the run's telemetry roll-up across all three engines.
	Fleet telemetry.FleetSnapshot
	// SpoolDir names the flight-recorder dump written when delivery broke
	// (empty on a clean run).
	SpoolDir string
}

func x5Shape(cfg Config) (w conglomerate, flaps int) {
	if cfg.Quick {
		return conglomerate{300, 256, 16, 512 << 10}, 3
	}
	return conglomerate{1200, 256, 32, 1 << 20}, 8
}

// x5Rails derives the transport profiles, wire-paced like X4's: each TCP
// rail enforces a GigE-class 40 MB/s on the wall clock. The pacing is what
// makes the fault schedule bite — frames genuinely occupy a rail when it
// breaks, so reclaim-and-failover (not luck) is what keeps delivery
// exactly-once.
func x5Rails() []caps.Caps {
	base := caps.TCP
	base.Name = "gige"
	base.Bandwidth = 40e6
	base.EmulateWire = true
	return caps.RailProfiles(base, 2)
}

// x5Script builds the deterministic scenario for seed: rolling flaps on
// the rails of the surviving pair, plus the bystander crash mid-run.
func x5Script(cfg Config) (chaos.Script, error) {
	_, flaps := x5Shape(cfg)
	s, err := chaos.RollingFlaps(cfg.Seed, chaos.FlapConfig{
		Nodes: 2, Rails: 2, Flaps: flaps,
		Start:   30 * time.Millisecond,
		Every:   60 * time.Millisecond,
		DownFor: 25 * time.Millisecond,
	})
	if err != nil {
		return chaos.Script{}, err
	}
	// The bystander dies in the middle of the flap sequence. Its traffic is
	// outside the exactly-once set; what the crash proves is that losing a
	// node wholesale neither wedges nor corrupts the surviving pair.
	crashAt := 30*time.Millisecond + time.Duration(flaps)*60*time.Millisecond/2
	s.Events = append(s.Events, chaos.Event{At: crashAt, Op: chaos.OpCrash, Node: 2})
	return s, nil
}

// X5Chaos runs the scenario once and reports the delivery and fault
// accounting.
func X5Chaos(cfg Config) (X5Result, error) {
	w, _ := x5Shape(cfg)
	script, err := x5Script(cfg)
	if err != nil {
		return X5Result{}, err
	}
	total := w.msgs()

	type key struct {
		src  packet.NodeID
		flow packet.FlowID
		seq  int
	}
	var mu sync.Mutex
	delivered := map[key]int{}
	var downs atomic.Int64

	opts := cluster.Options{
		Nodes:      3,
		Rails:      x5Rails(),
		TraceRing:  512, // flight recorders: the anomaly spool's evidence
		OnPeerDown: func(packet.NodeID, int, packet.NodeID) { downs.Add(1) },
	}
	// The exactly-once set: the conglomerate's flows between nodes 0 and 1.
	c, err := newMeshRig(opts, func(_ packet.NodeID, d proto.Deliverable) bool {
		if d.Pkt.Flow < 10 || d.Pkt.Flow >= 30 {
			return false
		}
		mu.Lock()
		delivered[key{d.Src, d.Pkt.Flow, d.Pkt.Seq}]++
		mu.Unlock()
		return true
	})
	if err != nil {
		return X5Result{}, err
	}
	defer c.Close()

	// Telemetry over the chaos run: one registry across the three engines,
	// rolled up into the result's fleet snapshot. No HTTP server here —
	// madbench consumes the snapshot directly.
	reg := telemetry.NewRegistry()
	for n := 0; n < 3; n++ {
		role := "survivor"
		if n == 2 {
			role = "bystander"
		}
		reg.Register(telemetry.Source{
			Node: packet.NodeID(n), Role: role, Engine: c.Engine(packet.NodeID(n)),
		})
	}

	start := time.Now()
	// Surviving pair: the conglomerate, both directions, paced across the
	// fault schedule — the engines must be mid-traffic when rails die, not
	// already drained.
	pairDone := w.start(c.Cluster, 200*time.Microsecond)
	// Bystander: background smalls toward both survivors until the crash
	// stops it (Submit starts failing on the closed engine — expected).
	stopBg := make(chan struct{})
	bgDone := eachNode(1, func(packet.NodeID) error {
		eng := c.Engine(2)
		for seq := 0; ; seq++ {
			select {
			case <-stopBg:
				return nil
			default:
			}
			for d := packet.NodeID(0); d < 2; d++ {
				if eng.Submit(message(packet.FlowID(50+d), seq, w.smallSize, 2, d)) != nil {
					return nil // crashed: done stimulating
				}
			}
			time.Sleep(time.Millisecond)
		}
	})

	tr := &chaos.Trace{}
	if err := c.RunScript(script, tr); err != nil {
		return X5Result{}, err
	}
	if tr.Len() != len(script.Events) {
		return X5Result{}, fmt.Errorf("exp: X5 executed %d of %d scripted events", tr.Len(), len(script.Events))
	}
	close(stopBg)
	bgDone()
	pairDone() // a Submit refused mid-flap shows up as a lost payload below

	// A short delivery is a result (Lost), not an error: keep nudging the
	// survivors' Nagle timers until the set completes or patience runs out.
	for deadline := time.Now().Add(90 * time.Second); c.wait(total, 10*time.Millisecond) != nil && time.Now().Before(deadline); {
		c.Engine(0).Flush()
		c.Engine(1).Flush()
	}
	completion := time.Since(start)

	res := X5Result{
		Msgs:       total,
		Bytes:      w.bytes(),
		Completion: completion,
		PeerDowns:  uint64(downs.Load()),
		Trace:      tr,
	}
	var m core.Metrics
	for n := 0; n < 2; n++ {
		c.Engine(packet.NodeID(n)).MetricsInto(&m)
		res.Failovers += m.Failovers
		res.Reclaimed += m.FramesReclaimed
	}
	mu.Lock()
	for _, n := range delivered {
		if n > 1 {
			res.Duplicated += n - 1
		}
	}
	res.Lost = total - len(delivered)
	mu.Unlock()

	res.Fleet = reg.Fleet()
	qwait := res.Fleet.SpanTotal("queue_wait")
	res.QwaitP50Us = qwait.Quantile(0.50) / 1e3
	res.QwaitP99Us = qwait.Quantile(0.99) / 1e3
	reportLatency("X5", res.Fleet.SpanTotal("e2e"), qwait)
	report("X5", func(r *Report) {
		r.FaultsInjected = res.PeerDowns
		r.Recoveries = res.Failovers
	})

	// Broken delivery freezes the evidence before anyone can panic: every
	// node's flight-recorder ring lands on disk as JSONL.
	if res.Lost != 0 || res.Duplicated != 0 {
		recs := make(map[int]*trace.Recorder, len(c.Nodes))
		for i, node := range c.Nodes {
			recs[i] = node.Trace
		}
		reason := fmt.Sprintf("x5-lost%d-dup%d", res.Lost, res.Duplicated)
		if dir, derr := trace.DumpAnomaly(os.TempDir(), reason, recs, 256); derr == nil {
			res.SpoolDir = dir
		}
	}
	return res, nil
}

func runX5(cfg Config) []*stats.Table {
	res := must(X5Chaos(cfg))
	if res.Lost != 0 || res.Duplicated != 0 {
		panic(fmt.Sprintf("exp: X5 delivery broken: %d lost, %d duplicated of %d (flight-recorder spool: %s)",
			res.Lost, res.Duplicated, res.Msgs, res.SpoolDir))
	}
	t := stats.NewTable(
		"X5 — conglomerate workload under rolling rail flaps and a node crash",
		"msgs", "MB", "time(ms)", "lost", "dup", "peer-downs", "failovers", "reclaimed",
		"qwait p50/p99 us")
	t.Caption = "faults are injected deterministically from the workload seed; the executed schedule replays event-for-event on a re-run (the shape test asserts trace equality); qwait is backlog residence time while rails flapped"
	t.AddRowf(res.Msgs, float64(res.Bytes)/1e6, res.Completion.Seconds()*1e3, res.Lost, res.Duplicated,
		res.PeerDowns, res.Failovers, res.Reclaimed,
		fmt.Sprintf("%.0f/%.0f", res.QwaitP50Us, res.QwaitP99Us))
	return []*stats.Table{t}
}
