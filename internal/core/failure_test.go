package core

import (
	"testing"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Failure injection. The fabrics the paper targets are loss-free
// interconnects, so the engine has no retransmission layer — but partial
// failures (a dead path to one peer) must never wedge traffic to other
// peers or crash the engine. Every rail of these rigs sits behind a
// chaos.Injector, the one fault layer: silent one-way loss toward a node is
// a Drop rule on that node's receive path.

// dropAll silently loses every frame arriving at the node it is given to.
var dropAll = []chaos.Rule{{Kind: chaos.Drop, Prob: 1}}

// newFailRig builds nodes engines over one simulated MX fabric. loss[n] are
// the receive-side fault rules of node n's rail; opt carries the protocol
// options under test (bundle, runtime, rails, Deliver and Stats are the
// rig's).
func newFailRig(t *testing.T, nodes int, opt Options, loss map[packet.NodeID][]chaos.Rule) (*drivers.Cluster, map[packet.NodeID]*chaos.Injector, map[packet.NodeID]*Engine, map[packet.NodeID]*int) {
	t.Helper()
	prof := caps.MX
	prof.Channels = 1
	cl, err := drivers.NewCluster(nodes, prof)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 3: node 1's stream draws 0.34 then 0.73, which
	// TestEngineRdvRetryAcrossPartition's Prob-1/2 rule turns into "first
	// RTS lost, retry through".
	rng := simnet.NewRNG(3)
	injectors := map[packet.NodeID]*chaos.Injector{}
	engines := map[packet.NodeID]*Engine{}
	counts := map[packet.NodeID]*int{}
	for n := 0; n < nodes; n++ {
		node := packet.NodeID(n)
		c := new(int)
		counts[node] = c
		inj, err := chaos.RailInjector(cl.Driver(node, "mx"), cl.Eng, rng, 0, loss[node]...)
		if err != nil {
			t.Fatal(err)
		}
		injectors[node] = inj
		o := opt
		o.Bundle, _ = strategy.New("aggregate")
		o.Runtime = cl.Eng
		o.Rails = []drivers.Driver{inj}
		o.Deliver = func(proto.Deliverable) { *c++ }
		o.Stats = cl.Stats
		eng, err := New(node, o)
		if err != nil {
			t.Fatal(err)
		}
		engines[node] = eng
	}
	return cl, injectors, engines, counts
}

func TestPartitionedPeerDoesNotWedgeOthers(t *testing.T) {
	// Everything toward node 1 silently drops; only node 0 sends there.
	cl, inj, engines, counts := newFailRig(t, 3, Options{}, map[packet.NodeID][]chaos.Rule{1: dropAll})

	// Traffic to the dead peer and to the healthy peer, interleaved.
	for i := 0; i < 10; i++ {
		if err := engines[0].Submit(pkt(1, i, 0, 1, 64)); err != nil {
			t.Fatal(err)
		}
		if err := engines[0].Submit(pkt(2, i, 0, 2, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.Run() // must terminate (no retry loops) and not panic

	if *counts[2] != 10 {
		t.Fatalf("healthy peer received %d of 10", *counts[2])
	}
	if *counts[1] != 0 {
		t.Fatalf("partitioned peer received %d frames through a partition", *counts[1])
	}
	if inj[1].Injected(chaos.Drop) == 0 {
		t.Fatal("partition dropped nothing")
	}
	// The engine is still usable after the failure.
	if err := engines[0].Submit(pkt(2, 10, 0, 2, 64)); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if *counts[2] != 11 {
		t.Fatalf("healthy peer received %d of 11 after the failure", *counts[2])
	}
}

func TestPartitionDuringRendezvousLeavesOthersRunning(t *testing.T) {
	// The RTS gets through, the reverse path is cut so the CTS is lost:
	// the rendezvous to node 1 stalls forever (documented: loss-free
	// fabrics have no timeouts) but traffic to node 2 must continue.
	cl, _, engines, counts := newFailRig(t, 3, Options{}, map[packet.NodeID][]chaos.Rule{0: dropAll})

	big := pkt(1, 0, 0, 1, 64<<10)
	big.Class = packet.ClassBulk
	if err := engines[0].Submit(big); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := engines[0].Submit(pkt(2, i, 0, 2, 128)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.Run()
	if *counts[2] != 5 {
		t.Fatalf("bystander traffic delivered %d of 5", *counts[2])
	}
	// The stalled rendezvous is observable, not fatal.
	if cl.Stats.CounterValue("core.rdv_started") != 1 {
		t.Fatal("rdv not started")
	}
	if cl.Stats.CounterValue("core.rdv_granted") != 0 {
		t.Fatal("rdv granted across a partition?")
	}
}

func TestCloseDuringTraffic(t *testing.T) {
	cl, _, engines, _ := newFailRig(t, 2, Options{}, nil)
	for i := 0; i < 20; i++ {
		if err := engines[0].Submit(pkt(1, i, 0, 1, 256)); err != nil {
			t.Fatal(err)
		}
	}
	// Close the receiver mid-flight: in-flight frames hit a closed engine
	// whose upcalls must be ignored without panic.
	steps := 0
	for cl.Eng.Step() {
		steps++
		if steps == 10 {
			engines[1].Close()
		}
	}
	// Sender keeps operating; submissions to the closed peer just vanish
	// at its closed receive path.
	if err := engines[0].Submit(pkt(1, 20, 0, 1, 256)); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
}

func TestClosedEngineRejectsWork(t *testing.T) {
	cl, _, engines, _ := newFailRig(t, 2, Options{}, nil)
	engines[0].Close()
	if err := engines[0].Submit(pkt(1, 0, 0, 1, 8)); err == nil {
		t.Fatal("submit after close accepted")
	}
	if err := engines[0].Put(1, 1, 0, []byte("x"), nil); err == nil {
		t.Fatal("put after close accepted")
	}
	if err := engines[0].Get(1, 1, 0, 1, func([]byte) {}); err == nil {
		t.Fatal("get after close accepted")
	}
	engines[0].Flush() // no-op, must not panic
	engines[0].Close() // idempotent
	cl.Eng.Run()
}
