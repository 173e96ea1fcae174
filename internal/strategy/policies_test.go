package strategy

import (
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

func TestPinnedRail(t *testing.T) {
	p := PinnedRail{}
	pkt := &packet.Packet{Flow: 3}
	if !p.Eligible(pkt, RailInfo{Index: 1, Count: 2}) {
		t.Fatal("flow 3 should pin to rail 1 of 2")
	}
	if p.Eligible(pkt, RailInfo{Index: 0, Count: 2}) {
		t.Fatal("flow 3 should not use rail 0 of 2")
	}
	if !p.Eligible(pkt, RailInfo{Index: 0, Count: 1}) {
		t.Fatal("single rail must accept everything")
	}
	if p.Name() != "rail-pinned" {
		t.Fatal("name")
	}
}

func TestSharedRail(t *testing.T) {
	s := SharedRail{}
	for rail := 0; rail < 3; rail++ {
		if !s.Eligible(&packet.Packet{Flow: packet.FlowID(rail)}, RailInfo{Index: rail, Count: 3}) {
			t.Fatal("shared rail refused a packet")
		}
	}
	if s.Name() != "rail-shared" {
		t.Fatal("name")
	}
}

func TestAffinityRail(t *testing.T) {
	// Rail 0 = MX (250MB/s, slower), rail 1 = Elan (900MB/s, lower
	// latency). Elan is both fastest and lowest-latency, so everything is
	// allowed everywhere except: bulk off the lowest-latency rail only if
	// distinct... here fastest == lowest, so no restriction applies.
	both := &AffinityRail{Rails: []caps.Caps{caps.MX, caps.Elan}}
	bulk := &packet.Packet{Class: packet.ClassBulk}
	ctrl := &packet.Packet{Class: packet.ClassControl}
	if !both.Eligible(bulk, RailInfo{Index: 1, Count: 2}) {
		t.Fatal("bulk should ride the fast rail when it is also lowest-latency")
	}

	// Synthetic pair where they differ: rail 0 low-latency/low-bandwidth,
	// rail 1 high-latency/high-bandwidth.
	lowLat := caps.Elan
	highBW := caps.IB // higher latency, higher bandwidth than Elan
	a := &AffinityRail{Rails: []caps.Caps{lowLat, highBW}}
	if a.Eligible(bulk, RailInfo{Index: 0, Count: 2}) {
		t.Fatal("bulk must stay off the low-latency rail")
	}
	if !a.Eligible(bulk, RailInfo{Index: 1, Count: 2}) {
		t.Fatal("bulk belongs on the high-bandwidth rail")
	}
	if a.Eligible(ctrl, RailInfo{Index: 1, Count: 2}) {
		t.Fatal("control must stay off the high-bandwidth rail")
	}
	if !a.Eligible(ctrl, RailInfo{Index: 0, Count: 2}) {
		t.Fatal("control belongs on the low-latency rail")
	}
	small := &packet.Packet{Class: packet.ClassSmall}
	if !a.Eligible(small, RailInfo{Index: 0, Count: 2}) || !a.Eligible(small, RailInfo{Index: 1, Count: 2}) {
		t.Fatal("small traffic should use any rail")
	}
	if a.Name() != "rail-affinity" {
		t.Fatal("name")
	}
	single := &AffinityRail{Rails: []caps.Caps{caps.MX}}
	if !single.Eligible(bulk, RailInfo{Index: 0, Count: 1}) {
		t.Fatal("single rail must accept everything")
	}
}

func TestSingleQueue(t *testing.T) {
	s := SingleQueue{}
	for c := packet.ClassID(0); c < packet.NumClasses; c++ {
		for ch := 0; ch < 4; ch++ {
			if !s.Allowed(c, ch, 4) {
				t.Fatal("single queue refused")
			}
		}
	}
	s.Observe(&packet.Packet{}) // no-op, must not panic
	if s.Name() != "classes-single" {
		t.Fatal("name")
	}
}

func TestReservedControl(t *testing.T) {
	r := ReservedControl{}
	if !r.Allowed(packet.ClassControl, 0, 4) {
		t.Fatal("control refused its lane")
	}
	if r.Allowed(packet.ClassControl, 1, 4) {
		t.Fatal("control strayed off its lane")
	}
	if r.Allowed(packet.ClassBulk, 0, 4) {
		t.Fatal("bulk on the control lane")
	}
	if !r.Allowed(packet.ClassBulk, 3, 4) {
		t.Fatal("bulk refused a data lane")
	}
	if !r.Allowed(packet.ClassSmall, 0, 4) || !r.Allowed(packet.ClassSmall, 2, 4) {
		t.Fatal("small should use any lane")
	}
	// Degenerate single-channel NIC: no segregation possible.
	if !r.Allowed(packet.ClassBulk, 0, 1) {
		t.Fatal("single channel must accept everything")
	}
	r.Observe(&packet.Packet{})
	if r.Name() != "classes-reserved" {
		t.Fatal("name")
	}
}

func TestAdaptiveClassesRepartitions(t *testing.T) {
	a := NewAdaptiveClasses(10)
	// A bulk-heavy phase: 9 bulk + 1 control per window.
	for i := 0; i < 10; i++ {
		cls := packet.ClassBulk
		if i == 0 {
			cls = packet.ClassControl
		}
		a.Observe(&packet.Packet{Class: cls})
	}
	// With 4 channels and 90% bulk, channels 1..3 are bulk's, 0 latency's.
	if !a.Allowed(packet.ClassBulk, 3, 4) || !a.Allowed(packet.ClassBulk, 1, 4) {
		t.Fatal("bulk denied its channels")
	}
	if a.Allowed(packet.ClassBulk, 0, 4) {
		t.Fatal("bulk took the last latency channel")
	}
	if !a.Allowed(packet.ClassControl, 0, 4) {
		t.Fatal("control denied its channel")
	}

	// A latency-heavy phase flips the split.
	for i := 0; i < 10; i++ {
		a.Observe(&packet.Packet{Class: packet.ClassControl})
	}
	if !a.Allowed(packet.ClassBulk, 3, 4) {
		t.Fatal("bulk must always keep at least one channel")
	}
	if a.Allowed(packet.ClassBulk, 2, 4) {
		t.Fatal("bulk kept channels it should have ceded")
	}
	if !a.Allowed(packet.ClassControl, 2, 4) {
		t.Fatal("control denied reclaimed channel")
	}
	if a.Name() != "classes-adaptive" {
		t.Fatal("name")
	}
	if !a.Allowed(packet.ClassBulk, 0, 1) {
		t.Fatal("single channel must accept everything")
	}
}

func TestThresholdProtocol(t *testing.T) {
	tp := ThresholdProtocol{}
	small := &packet.Packet{Payload: make([]byte, 100)}
	big := &packet.Packet{Payload: make([]byte, 64<<10)}
	if tp.UseRendezvous(small, caps.MX) {
		t.Fatal("small packet sent rendezvous")
	}
	if !tp.UseRendezvous(big, caps.MX) {
		t.Fatal("64KiB should exceed MX threshold")
	}
	express := &packet.Packet{Payload: make([]byte, 64<<10), Recv: packet.RecvExpress}
	if tp.UseRendezvous(express, caps.MX) {
		t.Fatal("express packet may never go rendezvous")
	}
	// Override shrinks the threshold.
	low := ThresholdProtocol{Override: 64}
	if !low.UseRendezvous(small, caps.MX) {
		t.Fatal("override threshold ignored")
	}
	if tp.Name() != "proto-threshold" {
		t.Fatal("name")
	}
}

func TestEagerAlways(t *testing.T) {
	e := EagerAlways{}
	big := &packet.Packet{Payload: make([]byte, 1<<20)}
	if e.UseRendezvous(big, caps.MX) {
		t.Fatal("eager-always used rendezvous")
	}
	if e.Name() != "proto-eager" {
		t.Fatal("name")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := map[string]bool{"fifo": true, "aggregate": true, "aggregate-intraflow": true, "search": true, "adaptive": true}
	found := 0
	for _, n := range names {
		if want[n] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("registry names = %v, missing predefined bundles", names)
	}
	b, err := New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "aggregate" || b.Builder.Name() != "aggregate" {
		t.Fatalf("bundle = %+v", b)
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown bundle accepted")
	}
	// Fresh instances each time (stateful policies must not be shared).
	a1, _ := New("adaptive")
	a2, _ := New("adaptive")
	if a1.Classes == a2.Classes {
		t.Fatal("adaptive bundles share state")
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register("", func() Bundle { return Bundle{} }); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register("x", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := Register("x", func() Bundle { return Bundle{} }); err == nil {
		t.Fatal("bundle with nil components accepted")
	}
	// Extension path: a custom bundle registers and instantiates.
	err := Register("custom-test", func() Bundle {
		return Bundle{
			Builder:  NewAggregate(),
			Rail:     PinnedRail{},
			Classes:  SingleQueue{},
			Protocol: EagerAlways{},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("custom-test")
	if err != nil || b.Protocol.Name() != "proto-eager" {
		t.Fatalf("custom bundle broken: %v %+v", err, b)
	}
}
