package core

import (
	"bytes"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// A rail that lost its peer for good. The rail policy's pick is a
// preference, not a pin: work it places on a rail that no longer reaches the
// destination falls through to a rail that does, with no retune.

// TestDeadRailRoutedAroundForEveryClass gates the low-latency rail of a
// 2-node × 2-rail simulated pair down in both directions before any traffic
// and never heals it. ScheduledRail pins control-class packets to that rail
// and stripes bulk across both, so without the fallback control and every
// transfer striped onto the dead rail would wait forever. Each class must be
// delivered exactly once. After the gate opens, new bulk is striped onto the
// healed rail again at once.
func TestDeadRailRoutedAroundForEveryClass(t *testing.T) {
	const perClass = 16
	// Homogeneous rails: rail 0 is the low-latency rail (ties keep the
	// first), and bulk stripes across both.
	profiles := caps.RailProfiles(caps.MX, 2)
	cl, err := drivers.NewCluster(2, profiles...)
	if err != nil {
		t.Fatal(err)
	}
	rng := simnet.NewRNG(1)
	got := map[[2]int]int{} // (flow, seq) → deliveries at node 1
	var engines [2]*Engine
	var lowLat [2]*chaos.Injector
	for n := 0; n < 2; n++ {
		node := packet.NodeID(n)
		var rails []drivers.Driver
		for r, d := range cl.NodeDrivers(node) {
			inj, err := chaos.RailInjector(d, cl.Eng, rng, r)
			if err != nil {
				t.Fatal(err)
			}
			rails = append(rails, inj)
		}
		lowLat[n] = rails[0].(*chaos.Injector)
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		b.Rail = strategy.NewScheduledRail(caps.EngineOrder(profiles))
		eng, err := New(node, Options{
			Bundle:  b,
			Runtime: cl.Eng,
			Rails:   rails,
			Deliver: func(d proto.Deliverable) { got[[2]int{int(d.Pkt.Flow), d.Pkt.Seq}]++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[n] = eng
	}
	lowLat[0].SetPeerDown(1, true)
	lowLat[1].SetPeerDown(0, true)

	window := make([]byte, perClass*4096)
	engines[1].RegisterWindow(7, window)
	puts := make([]int, perClass)
	classes := []struct {
		flow  packet.FlowID
		class packet.ClassID
		size  int
	}{
		{1, packet.ClassControl, 64},
		{2, packet.ClassSmall, 256},
		{3, packet.ClassBulk, 64 << 10}, // rendezvous
		{4, packet.ClassBulk, 16 << 10}, // eager, under MX's 32 KiB threshold
	}
	submit := func(flow packet.FlowID, class packet.ClassID, seq, size int) {
		t.Helper()
		p := pkt(flow, seq, 0, 1, size)
		p.Class = class
		if err := engines[0].Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perClass; i++ {
		for _, c := range classes {
			submit(c.flow, c.class, i, c.size)
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, 4096)
		if err := engines[0].Put(1, 7, int64(i*4096), data, func() { puts[i]++ }); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.Run()

	for _, c := range classes {
		for i := 0; i < perClass; i++ {
			if n := got[[2]int{int(c.flow), i}]; n != 1 {
				t.Errorf("flow %d (%v, %d B) seq %d delivered %d times, want 1", c.flow, c.class, c.size, i, n)
			}
		}
	}
	for i, n := range puts {
		if n != 1 || window[i*4096] != byte(i+1) {
			t.Errorf("RMA put %d completed %d times (window byte %d)", i, n, window[i*4096])
		}
	}
	m := engines[0].Metrics()
	if m.RailDowns[0] != 1 || m.RailFrames[0] != 0 {
		t.Fatalf("rail 0 downs %d frames %d: the gate was not exercised", m.RailDowns[0], m.RailFrames[0])
	}
	if t.Failed() {
		return
	}

	// Heal: bulk striped onto rail 0 takes it again. Eager class-bulk only,
	// so no control frame can account for rail 0's new frames.
	lowLat[0].SetPeerDown(1, false)
	lowLat[1].SetPeerDown(0, false)
	for i := perClass; i < 2*perClass; i++ {
		submit(4, packet.ClassBulk, i, 16<<10)
	}
	cl.Eng.Run()
	for i := perClass; i < 2*perClass; i++ {
		if n := got[[2]int{4, i}]; n != 1 {
			t.Errorf("post-heal bulk seq %d delivered %d times, want 1", i, n)
		}
	}
	if m := engines[0].Metrics(); m.RailFrames[0] == 0 {
		t.Fatalf("no bulk posted on the healed rail (rail frames %v)", m.RailFrames)
	}
}
