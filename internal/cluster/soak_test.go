package cluster

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/control"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestMultiRailSoakRetuneAndRedial is the concurrency soak for the
// multi-rail wall-clock path and the adaptive controller live on sockets,
// meant to run under -race. The controller samples node 0 of a 2-node,
// 2-rail cluster through two phases: a sparse one, single small messages
// each flushed ~2 ms apart, then live eager and rendezvous traffic in both
// directions, during which (a) every regime flip swaps the bundle under
// the node's rail scheduler mid-traffic and (b) one rail is force-re-dialed,
// exercising the retire→drain→replace path with frames genuinely queued.
//
// Delivery is total: every submitted packet arrives — the drain may not
// lose frames, the retunes may not strand any class or evict the rail
// scheduler, and the race detector must stay quiet. The controller's
// decisions carry over from virtual time (E11) to wall-clock telemetry:
// it retunes, the dense phase drives it to the throughput regime, and the
// cooldown bounds the retune rate — the adjustment cost the paper's
// weight-dynamic reoptimization warning is about. (The final mode is not
// asserted: once the dense traffic drains, flipping back is correct, and
// when is up to the host.)
func TestMultiRailSoakRetuneAndRedial(t *testing.T) {
	const (
		sparseMsgs = 60
		sparseGap  = 2 * time.Millisecond
		smallMsgs  = 1500
		smallSize  = 256
		bulkMsgs   = 40
		bulkSize   = 128 << 10
		// denseFor floors the dense phase: small messages keep coming
		// until it has passed, so the rate the loop smooths and confirms
		// is sustained however fast the host drains the rest.
		denseFor = 60 * time.Millisecond
		cooldown = 10 * time.Millisecond
	)

	var submitted, delivered atomic.Int64
	submitted.Store(sparseMsgs)
	opts := Options{
		Nodes:     2,
		Rails:     caps.RailProfiles(caps.TCP, 2),
		Raw:       true,
		OnDeliver: func(packet.NodeID, proto.Deliverable) { delivered.Add(1) },
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Register soak tunings with a wall-clock Nagle delay, so every regime
	// flip moves a live operating point.
	strategy.MustRegisterTuning(strategy.Tuning{
		Name: "soak-latency", Bundle: "aggregate", Knobs: strategy.Knobs{Lookahead: 2},
	})
	strategy.MustRegisterTuning(strategy.Tuning{
		Name: "soak-throughput", Bundle: "aggregate",
		Knobs: strategy.Knobs{NagleDelay: simnet.FromWall(200 * time.Microsecond), NagleFlushCount: 16},
	})
	ctl, err := control.New(control.Options{
		Engine:   c.Engine(0),
		Runtime:  c.Runtime,
		Interval: simnet.FromWall(2 * time.Millisecond),
		HalfLife: simnet.FromWall(8 * time.Millisecond),
		Confirm:  2,
		Cooldown: simnet.FromWall(cooldown),
		// The sparse phase cannot exceed 500/s (one message per sparseGap);
		// the dense phase runs ≥ 8e3/s on node 0 even under -race on two
		// cores. The band sits with 2× margin to both.
		HiRate: 4e3,
		LoRate: 1e3,
		Tunings: map[control.Mode]string{
			control.ModeLatency:    "soak-latency",
			control.ModeBalanced:   "soak-latency",
			control.ModeThroughput: "soak-throughput",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	// Sparse phase: at most one message per sparseGap, under LoRate.
	for q := 0; q < sparseMsgs; q++ {
		p := &packet.Packet{
			Flow: 1, Msg: packet.MsgID(q + 1), Seq: q, Last: true,
			Src: 0, Dst: 1, Class: packet.ClassSmall, Payload: make([]byte, 64),
		}
		if err := c.Engine(0).Submit(p); err != nil {
			t.Fatal(err)
		}
		c.Engine(0).Flush()
		time.Sleep(sparseGap)
	}
	denseFrom := c.Runtime.Now() // decisions share the runtime clock

	stop := make(chan struct{})
	var churn sync.WaitGroup
	// Force a healthy re-dial of rail 0 in both directions mid-run, while
	// frames are queued toward the old connections.
	churn.Add(1)
	go func() {
		defer churn.Done()
		select {
		case <-stop:
			return
		case <-time.After(30 * time.Millisecond):
		}
		if err := c.Nodes[0].Rails[0].Dial(1, c.Nodes[1].Rails[0].Addr()); err != nil {
			t.Errorf("re-dial 0->1: %v", err)
		}
		if err := c.Nodes[1].Rails[0].Dial(0, c.Nodes[0].Rails[0].Addr()); err != nil {
			t.Errorf("re-dial 1->0: %v", err)
		}
	}()

	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := c.Engine(packet.NodeID(s))
			dst := packet.NodeID(1 - s)
			si, bi := 0, 0
			for start := time.Now(); si < smallMsgs || bi < bulkMsgs || time.Since(start) < denseFor; {
				for k := 0; k < smallMsgs/bulkMsgs+1; k++ {
					p := &packet.Packet{
						Flow: packet.FlowID(10 + s), Msg: packet.MsgID(si + 1), Seq: si, Last: true,
						Src: packet.NodeID(s), Dst: dst,
						Class: packet.ClassSmall, Payload: make([]byte, smallSize),
					}
					if err := eng.Submit(p); err != nil {
						t.Errorf("submit small: %v", err)
						return
					}
					si++
					submitted.Add(1)
				}
				if bi < bulkMsgs {
					p := &packet.Packet{
						Flow: packet.FlowID(20 + s), Msg: packet.MsgID(bi + 1), Seq: bi, Last: true,
						Src: packet.NodeID(s), Dst: dst,
						Class: packet.ClassSmall, Payload: make([]byte, bulkSize),
					}
					if err := eng.Submit(p); err != nil {
						t.Errorf("submit bulk: %v", err)
						return
					}
					bi++
					submitted.Add(1)
				}
			}
			eng.Flush()
		}()
	}
	wg.Wait()

	total := submitted.Load()
	for deadline := time.Now().Add(60 * time.Second); delivered.Load() < total; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("soak incomplete: %d of %d delivered", delivered.Load(), total)
		}
	}
	close(stop)
	churn.Wait()
	ctl.Stop()

	// The drains from the mid-run re-dials must have completed without
	// losing a frame (delivery count above) and without leaking rails.
	for n := 0; n < 2; n++ {
		for _, r := range c.Nodes[n].Rails {
			if r.PeerDown(packet.NodeID(1 - n)) {
				t.Fatalf("node %d rail %s: peer down after healthy re-dial soak", n, r.Name())
			}
		}
	}
	if delivered.Load() != total {
		t.Fatalf("delivered %d of %d", delivered.Load(), total)
	}
	if rail := c.Engine(0).Bundle().Rail; rail.Name() != "rail-sched" {
		t.Fatalf("controller retunes replaced node 0's rail scheduler with %q", rail.Name())
	}

	ds := ctl.Decisions()
	if len(ds) == 0 {
		t.Fatal("controller issued no retune decisions on the live mesh")
	}
	dense := false
	for i, d := range ds {
		dense = dense || d.At >= denseFrom && control.Mode(d.To) == control.ModeThroughput
		if i > 0 {
			if gap := simnet.ToWall(d.At.Sub(ds[i-1].At)); gap < cooldown {
				t.Errorf("decisions %d and %d only %v apart, cooldown is %v", i-1, i, gap, cooldown)
			}
		}
	}
	if !dense {
		t.Errorf("dense phase never drove the controller to throughput (decisions: %v)", ds)
	}
}
