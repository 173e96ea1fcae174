package core

import (
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Engine-level resilience: rail failover and rendezvous timeout-and-retry.

// newTwoRailMeshEngines boots two nodes, each with two real TCP mesh rails
// and one engine over both, wired all-to-all.
func newTwoRailMeshEngines(t *testing.T, onDeliver func(node packet.NodeID, d proto.Deliverable), opt Options) (engines [2]*Engine, rails [2][]*drivers.Mesh, cleanup func()) {
	t.Helper()
	profiles := caps.RailProfiles(caps.TCP, 2)
	rt := simnet.NewRealRuntime()
	for n := 0; n < 2; n++ {
		rs, err := drivers.NewMeshRails(packet.NodeID(n), profiles, drivers.TCP)
		if err != nil {
			t.Fatal(err)
		}
		rails[n] = rs
	}
	for i := range rails {
		for j := range rails {
			if i == j {
				continue
			}
			for r := range rails[i] {
				if err := rails[i][r].Dial(packet.NodeID(j), rails[j][r].Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for n := 0; n < 2; n++ {
		node := packet.NodeID(n)
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]drivers.Driver, len(rails[n]))
		for i, m := range rails[n] {
			ds[i] = m
		}
		o := opt
		o.Bundle = b
		o.Runtime = rt
		o.Rails = ds
		o.Deliver = func(d proto.Deliverable) { onDeliver(node, d) }
		eng, err := New(node, o)
		if err != nil {
			t.Fatal(err)
		}
		engines[n] = eng
	}
	cleanup = func() {
		for _, e := range engines {
			e.Close()
		}
		for _, rs := range rails {
			for _, r := range rs {
				r.Close()
			}
		}
	}
	return engines, rails, cleanup
}

// TestEngineFailoverAcrossRails breaks one rail mid-traffic and asserts
// exactly-once delivery of every payload: frames stranded on the dead rail
// are reclaimed, re-posted on the surviving rail, and deduplicated by the
// reassembler where the broken connection left their fate ambiguous.
func TestEngineFailoverAcrossRails(t *testing.T) {
	const msgs = 200
	var mu sync.Mutex
	got := map[int]int{} // seq -> deliveries
	done := make(chan struct{}, 1)
	engines, rails, cleanup := newTwoRailMeshEngines(t,
		func(_ packet.NodeID, d proto.Deliverable) {
			mu.Lock()
			got[d.Pkt.Seq]++
			n := len(got)
			mu.Unlock()
			if n == msgs {
				done <- struct{}{}
			}
		}, Options{})
	defer cleanup()

	for i := 0; i < msgs; i++ {
		if err := engines[0].Submit(pkt(1, i, 0, 1, 2048)); err != nil {
			t.Fatal(err)
		}
		if i == msgs/2 {
			// Sever rail 0 in the sending direction with traffic in flight.
			rails[0][0].BreakPeer(1)
		}
	}
	engines[0].Flush()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("failover incomplete: %d of %d distinct payloads delivered", len(got), msgs)
	}
	mu.Lock()
	for seq, n := range got {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times", seq, n)
		}
	}
	mu.Unlock()
	m := engines[0].Metrics()
	if m.Failovers == 0 {
		t.Fatalf("no failover activity recorded: %+v", m)
	}
	if m.RailDowns[0]+m.RailDowns[1] == 0 {
		t.Fatal("rail-down event not counted")
	}
}

// TestEngineRdvRetryAcrossPartition loses a rendezvous RTS to silent loss
// on the path and verifies the retry timer re-sends it: the transfer
// completes without manual intervention, deterministically in virtual time.
func TestEngineRdvRetryAcrossPartition(t *testing.T) {
	// Node 1's rail loses RTS frames with probability 1/2; the rig's seed
	// loses the first one and lets a retry through (both asserted below).
	// First retry after 50 µs, doubling after that.
	lossy := []chaos.Rule{{Kind: chaos.Drop, Prob: 0.5, Frames: []packet.FrameKind{packet.FrameRTS}}}
	cl, inj, engines, counts := newFailRig(t, 2, Options{RdvRetry: 50 * simnet.Microsecond},
		map[packet.NodeID][]chaos.Rule{1: lossy})

	big := pkt(1, 0, 0, 1, 64<<10)
	big.Class = packet.ClassBulk
	if err := engines[0].Submit(big); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()

	if inj[1].Injected(chaos.Drop) == 0 {
		t.Fatal("the first RTS was not lost — the retry path went untested")
	}
	if *counts[1] != 1 {
		t.Fatalf("rendezvous payload delivered %d times, want exactly 1", *counts[1])
	}
	m := engines[0].Metrics()
	if m.RdvRetries == 0 {
		t.Fatal("no retry fired — the transfer completed some other way?")
	}
	if cl.Stats.CounterValue("core.rdv_retries") == 0 {
		t.Fatal("retry counter untouched")
	}
}

// TestEngineRdvRetryGivesUp bounds the retry storm: with the path dead for
// good, retries stop at RdvRetryMax and the run still terminates.
func TestEngineRdvRetryGivesUp(t *testing.T) {
	cl, _, engines, _ := newFailRig(t, 2, Options{RdvRetry: 10 * simnet.Microsecond, RdvRetryMax: 3},
		map[packet.NodeID][]chaos.Rule{1: dropAll})
	big := pkt(1, 0, 0, 1, 64<<10)
	big.Class = packet.ClassBulk
	if err := engines[0].Submit(big); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run() // must terminate: retries are bounded
	if got := engines[0].Metrics().RdvRetries; got != 3 {
		t.Fatalf("retries = %d, want exactly RdvRetryMax (3)", got)
	}
}
