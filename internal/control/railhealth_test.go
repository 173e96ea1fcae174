package control

import (
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/cluster"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// TestControllerDemotesAndRestoresLossyRail drives the rail-health loop on
// a live two-rail mesh: breaking one rail demotes it (its scheduling
// weight drops to zero, steering new traffic to the survivor), and after
// RailHealSamples clean samples following the heal, the rail earns its
// weight back.
func TestControllerDemotesAndRestoresLossyRail(t *testing.T) {
	opts := cluster.Options{
		Nodes: 2,
		Rails: caps.RailProfiles(caps.TCP, 2),
		Raw:   true,
	}
	c, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	eng := c.Engine(0)

	ctl, err := New(Options{
		Engine:           eng,
		Runtime:          c.Runtime,
		Interval:         simnet.FromWall(2 * time.Millisecond),
		DemoteLossyRails: true,
		RailHealSamples:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	waitWeights := func(what string, cond func(w []float64) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if w, ok := eng.RailWeights(); ok && cond(w) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		w, _ := eng.RailWeights()
		t.Fatalf("timed out waiting for %s (weights %v)", what, w)
	}

	// Both rails start at their bandwidth default.
	waitWeights("initial weights", func(w []float64) bool {
		return len(w) == 2 && w[0] > 0 && w[1] > 0
	})

	// Break rail 0 toward the peer: the next sample shows a new peer-down
	// event and the controller demotes the rail.
	if !c.Nodes[0].Rails[0].BreakPeer(1) {
		t.Fatal("break failed")
	}
	waitWeights("demotion", func(w []float64) bool {
		return w[0] == 0 && w[1] > 0
	})
	if d, _ := ctl.RailDemotions(); d != 1 {
		t.Fatalf("demotions = %d, want 1", d)
	}
	flags := ctl.DemotedRails()
	if len(flags) != 2 || !flags[0] || flags[1] {
		t.Fatalf("demotion flags = %v", flags)
	}

	// Heal the rail; after RailHealSamples clean samples the weight comes
	// back to the capability default.
	if err := c.Nodes[0].Rails[0].Dial(1, c.Nodes[1].Rails[0].Addr()); err != nil {
		t.Fatal(err)
	}
	waitWeights("restore", func(w []float64) bool {
		return w[0] > 0 && w[1] > 0
	})
	if _, r := ctl.RailDemotions(); r != 1 {
		t.Fatalf("restores = %d, want 1", r)
	}

	// The restored engine still routes traffic (sanity end-to-end check).
	done := make(chan struct{}, 1)
	go func() {
		p := &packet.Packet{Flow: 1, Msg: 1, Seq: 0, Last: true, Src: 0, Dst: 1,
			Class: packet.ClassSmall, Payload: make([]byte, 128)}
		if err := eng.Submit(p); err != nil {
			t.Errorf("submit after restore: %v", err)
		}
		eng.Flush()
		done <- struct{}{}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("submit wedged after demotion cycle")
	}
}
