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
// multi-rail wall-clock path, meant to run under -race: a 2-node, 2-rail
// cluster carries live eager and rendezvous traffic in both directions
// while (a) the adaptive controller samples node 0 and retunes — every
// regime flip swaps the bundle under the node's rail scheduler
// mid-traffic — and (b) one rail is force-re-dialed in the middle of the
// run, exercising the retire→drain→replace path with frames genuinely
// queued. The assertion is total: every submitted packet is delivered —
// the drain may not lose frames, the retunes may not strand any class or
// evict the rail scheduler, and the race detector must stay quiet.
func TestMultiRailSoakRetuneAndRedial(t *testing.T) {
	const (
		smallMsgs = 1500
		smallSize = 256
		bulkMsgs  = 40
		bulkSize  = 128 << 10
	)
	total := 2 * (smallMsgs + bulkMsgs)

	var delivered atomic.Int64
	done := make(chan struct{}, 1)
	opts := Options{
		Nodes: 2,
		Rails: caps.RailProfiles(caps.TCP, 2),
		Raw:   true,
		OnDeliver: func(packet.NodeID, proto.Deliverable) {
			if delivered.Add(1) == int64(total) {
				done <- struct{}{}
			}
		},
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Register soak tunings with a wall-clock Nagle delay, so every regime
	// flip moves a live operating point.
	strategy.MustRegisterTuning(strategy.Tuning{
		Name: "soak-latency", Bundle: "aggregate", Lookahead: 2,
	})
	strategy.MustRegisterTuning(strategy.Tuning{
		Name: "soak-throughput", Bundle: "aggregate",
		NagleDelay: simnet.FromWall(200 * time.Microsecond), NagleFlushCount: 16,
	})
	ctl, err := control.New(control.Options{
		Engine:   c.Engine(0),
		Runtime:  c.Runtime,
		Interval: simnet.FromWall(2 * time.Millisecond),
		HalfLife: simnet.FromWall(8 * time.Millisecond),
		Confirm:  2,
		Cooldown: simnet.FromWall(10 * time.Millisecond),
		HiRate:   20e3,
		LoRate:   2e3,
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
			for si < smallMsgs || bi < bulkMsgs {
				for k := 0; k < smallMsgs/bulkMsgs+1 && si < smallMsgs; k++ {
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
				}
			}
			eng.Flush()
		}()
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("soak incomplete: %d of %d delivered", delivered.Load(), total)
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
	if delivered.Load() != int64(total) {
		t.Fatalf("delivered %d of %d", delivered.Load(), total)
	}
	if rail := c.Engine(0).Bundle().Rail; rail.Name() != "rail-sched" {
		t.Fatalf("controller retunes replaced node 0's rail scheduler with %q", rail.Name())
	}
}
