package packet

import (
	"strings"
	"testing"
)

func TestPacketValidate(t *testing.T) {
	good := &Packet{Flow: 1, Src: 0, Dst: 1, Class: ClassSmall, Payload: []byte("hi")}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid packet rejected: %v", err)
	}
	cases := []struct {
		name string
		p    Packet
	}{
		{"negative seq", Packet{Seq: -1, Dst: 1}},
		{"loopback", Packet{Src: 3, Dst: 3}},
		{"bad class", Packet{Dst: 1, Class: NumClasses}},
		{"bad send mode", Packet{Dst: 1, Send: SendMode(9)}},
		{"bad recv mode", Packet{Dst: 1, Recv: RecvMode(9)}},
	}
	for _, tc := range cases {
		if tc.p.Validate() == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestPacketSizeAndString(t *testing.T) {
	p := &Packet{Flow: 2, Msg: 5, Seq: 1, Payload: make([]byte, 37)}
	if p.Size() != 37 {
		t.Fatalf("Size = %d", p.Size())
	}
	if !strings.Contains(p.String(), "37B") {
		t.Fatalf("Packet.String() = %q", p.String())
	}
}

func TestModeStrings(t *testing.T) {
	if SendSafer.String() != "send_SAFER" || SendLater.String() != "send_LATER" || SendCheaper.String() != "send_CHEAPER" {
		t.Fatal("send mode mnemonics wrong")
	}
	if RecvExpress.String() != "receive_EXPRESS" || RecvCheaper.String() != "receive_CHEAPER" {
		t.Fatal("recv mode mnemonics wrong")
	}
	if ClassControl.String() != "control" || ClassBulk.String() != "bulk" {
		t.Fatal("class mnemonics wrong")
	}
	if !strings.Contains(SendMode(7).String(), "7") {
		t.Fatal("unknown send mode should include numeric value")
	}
	if !strings.Contains(RecvMode(7).String(), "7") {
		t.Fatal("unknown recv mode should include numeric value")
	}
	if !strings.Contains(ClassID(7).String(), "7") {
		t.Fatal("unknown class should include numeric value")
	}
}

func TestMayReorderAndMustPrecede(t *testing.T) {
	a := &Packet{Flow: 1, Dst: 1, SubmitSeq: 1}
	b := &Packet{Flow: 1, Dst: 1, SubmitSeq: 2}
	c := &Packet{Flow: 2, Dst: 1, SubmitSeq: 3}
	d := &Packet{Flow: 1, Dst: 2, SubmitSeq: 4}
	if MayReorder(a, b) {
		t.Fatal("same-connection packets must not reorder")
	}
	if !MayReorder(a, c) {
		t.Fatal("cross-flow packets may reorder")
	}
	if !MayReorder(a, d) {
		t.Fatal("same flow, different destination: independent connections may reorder")
	}
	if !MustPrecede(a, b) {
		t.Fatal("a precedes b within the connection")
	}
	if MustPrecede(b, a) {
		t.Fatal("precedence is directional")
	}
	if MustPrecede(a, c) {
		t.Fatal("no precedence across flows")
	}
	if MustPrecede(a, d) {
		t.Fatal("no precedence across destinations")
	}
}

func TestEagerOnly(t *testing.T) {
	if !EagerOnly(&Packet{Recv: RecvExpress}) {
		t.Fatal("express packet must be eager-only")
	}
	if EagerOnly(&Packet{Recv: RecvCheaper}) {
		t.Fatal("cheaper packet is not eager-only")
	}
}

func TestCanAppend(t *testing.T) {
	lim := AggregateLimits{MaxIOV: 4, MaxAggregate: 100}
	p := &Packet{Dst: 1, Payload: make([]byte, 40)}
	if !CanAppend(p, 0, 0, 1, lim) {
		t.Fatal("first packet rejected")
	}
	if CanAppend(p, 0, 0, 2, lim) {
		t.Fatal("wrong destination accepted")
	}
	if CanAppend(p, 0, 70, 1, lim) {
		t.Fatal("size overflow accepted")
	}
	if CanAppend(p, 4, 0, 1, lim) {
		t.Fatal("iov overflow accepted")
	}
	// Copy-only driver (MaxIOV=1): count is not limited, only bytes.
	copyLim := AggregateLimits{MaxIOV: 1, MaxAggregate: 100}
	if !CanAppend(p, 10, 40, 1, copyLim) {
		t.Fatal("copy-based aggregation should not be slot-limited")
	}
	if CanAppend(p, 10, 70, 1, copyLim) {
		t.Fatal("copy-based aggregation still byte-limited")
	}
}

func TestOrderedSubset(t *testing.T) {
	mk := func(flow FlowID, dst NodeID, seq uint64) *Packet {
		return &Packet{Flow: flow, Dst: dst, SubmitSeq: seq}
	}
	ok := []*Packet{mk(1, 1, 1), mk(2, 1, 5), mk(1, 1, 3), mk(2, 1, 6)}
	if !OrderedSubset(ok) {
		t.Fatal("interleaved but per-connection-ordered sequence rejected")
	}
	bad := []*Packet{mk(1, 1, 3), mk(1, 1, 1)}
	if OrderedSubset(bad) {
		t.Fatal("per-connection reorder accepted")
	}
	// Same flow, different destinations: independent sequence spaces.
	okDst := []*Packet{mk(1, 2, 3), mk(1, 1, 1)}
	if !OrderedSubset(okDst) {
		t.Fatal("cross-destination reorder within a flow should be legal")
	}
	if !OrderedSubset(nil) {
		t.Fatal("empty sequence should be ordered")
	}
	// 100 connections, past the 64 the stack table holds: two rounds in
	// order pass, and a reorder is caught on either side of the spill.
	var wide []*Packet
	for round := uint64(0); round < 2; round++ {
		for c := 0; c < 100; c++ {
			wide = append(wide, mk(FlowID(c), 1, round*100+uint64(c)+1))
		}
	}
	if !OrderedSubset(wide) {
		t.Fatal("100-connection ordered plan rejected")
	}
	for _, c := range []FlowID{3, 90} {
		if OrderedSubset(append(wide[:len(wide):len(wide)], mk(c, 1, 50))) {
			t.Fatalf("reorder on connection %d of 100 accepted", c)
		}
	}
}
