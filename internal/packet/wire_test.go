package packet

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestFrameDataRoundTrip(t *testing.T) {
	f := &Frame{
		Kind: FrameData,
		Src:  3, Dst: 7,
		Entries: []Entry{
			{Flow: 1, Msg: 10, Seq: 0, Last: false, Class: ClassSmall, Recv: RecvExpress, Payload: []byte("header")},
			{Flow: 2, Msg: 99, Seq: 4, Last: true, Class: ClassControl, Recv: RecvCheaper, Payload: []byte{}},
			{Flow: 1, Msg: 10, Seq: 1, Last: true, Class: ClassBulk, Recv: RecvCheaper, Payload: bytes.Repeat([]byte{0xAB}, 300)},
		},
	}
	enc := f.Encode(nil)
	if len(enc) != f.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(enc), f.WireSize())
	}
	got := &Frame{}
	n, err := DecodeInto(got, enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.Kind != FrameData || got.Src != 3 || got.Dst != 7 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("entries = %d", len(got.Entries))
	}
	for i := range f.Entries {
		w, g := f.Entries[i], got.Entries[i]
		if w.Flow != g.Flow || w.Msg != g.Msg || w.Seq != g.Seq || w.Last != g.Last ||
			w.Class != g.Class || w.Recv != g.Recv || !bytes.Equal(w.Payload, g.Payload) {
			t.Fatalf("entry %d mismatch:\n want %+v\n got  %+v", i, w, g)
		}
	}
}

func TestFrameCtrlRoundTrip(t *testing.T) {
	for _, kind := range []FrameKind{FrameRTS, FrameCTS, FrameAck, FrameGet} {
		f := &Frame{
			Kind: kind, Src: 1, Dst: 2,
			Ctrl: Ctrl{Token: 123456789, Flow: 4, Msg: 5, Seq: 6, Size: 70000, Last: true},
		}
		enc := f.Encode(nil)
		if len(enc) != f.WireSize() {
			t.Fatalf("%v: encoded %d, WireSize %d", kind, len(enc), f.WireSize())
		}
		got := &Frame{}
		if _, err := DecodeInto(got, enc); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if got.Ctrl != f.Ctrl {
			t.Fatalf("%v: ctrl mismatch %+v vs %+v", kind, got.Ctrl, f.Ctrl)
		}
	}
}

func TestFrameBulkRoundTrip(t *testing.T) {
	for _, kind := range []FrameKind{FrameRData, FramePut, FrameGetReply} {
		f := &Frame{
			Kind: kind, Src: 9, Dst: 1,
			Ctrl: Ctrl{Token: 7, Flow: 1, Msg: 2, Seq: 3, Size: 1000},
			Bulk: bytes.Repeat([]byte{0x5A}, 1000),
		}
		enc := f.Encode(nil)
		got := &Frame{}
		n, err := DecodeInto(got, enc)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if n != len(enc) || !bytes.Equal(got.Bulk, f.Bulk) {
			t.Fatalf("%v: bulk mismatch", kind)
		}
		if got.PayloadSize() != 1000 {
			t.Fatalf("%v: PayloadSize = %d", kind, got.PayloadSize())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeInto(&Frame{}, nil); err != ErrTruncated {
		t.Fatalf("nil: %v", err)
	}
	if _, err := DecodeInto(&Frame{}, make([]byte, 4)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	bad := (&Frame{Kind: FrameData, Src: 1, Dst: 2}).Encode(nil)
	bad[0] = 0xFF
	if _, err := DecodeInto(&Frame{}, bad); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	bad = (&Frame{Kind: FrameData, Src: 1, Dst: 2}).Encode(nil)
	bad[2] = 0x7F
	if _, err := DecodeInto(&Frame{}, bad); err != ErrBadKind {
		t.Fatalf("kind: %v", err)
	}
	// Truncated entry payload.
	f := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{{Payload: []byte("hello")}}}
	enc := f.Encode(nil)
	if _, err := DecodeInto(&Frame{}, enc[:len(enc)-2]); err != ErrTruncated {
		t.Fatalf("truncated payload: %v", err)
	}
	// Truncated ctrl.
	cf := &Frame{Kind: FrameRTS, Src: 1, Dst: 2}
	cenc := cf.Encode(nil)
	if _, err := DecodeInto(&Frame{}, cenc[:HeaderSize+3]); err != ErrTruncated {
		t.Fatalf("truncated ctrl: %v", err)
	}
	// Truncated bulk.
	bf := &Frame{Kind: FramePut, Src: 1, Dst: 2, Bulk: []byte("0123456789")}
	benc := bf.Encode(nil)
	if _, err := DecodeInto(&Frame{}, benc[:len(benc)-1]); err != ErrTruncated {
		t.Fatalf("truncated bulk: %v", err)
	}
}

func TestDecodeConsumesExactlyOneFrame(t *testing.T) {
	a := (&Frame{Kind: FrameAck, Src: 1, Dst: 2, Ctrl: Ctrl{Token: 1}}).Encode(nil)
	b := (&Frame{Kind: FrameAck, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 2}}).Encode(nil)
	stream := append(append([]byte{}, a...), b...)
	f1, f2 := &Frame{}, &Frame{}
	n1, err := DecodeInto(f1, stream)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := DecodeInto(f2, stream[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(stream) {
		t.Fatal("two frames did not consume the stream")
	}
	if f1.Ctrl.Token != 1 || f2.Ctrl.Token != 2 {
		t.Fatal("frame order scrambled")
	}
}

func TestEntryPacketConversion(t *testing.T) {
	p := &Packet{Flow: 3, Msg: 4, Seq: 5, Last: true, Src: 1, Dst: 2,
		Class: ClassRMA, Recv: RecvExpress, Payload: []byte("x")}
	e := EntryFromPacket(p)
	if e.Flow != p.Flow || e.Msg != p.Msg || e.Seq != p.Seq ||
		e.Last != p.Last || e.Class != p.Class || e.Recv != p.Recv ||
		!bytes.Equal(e.Payload, p.Payload) {
		t.Fatalf("conversion lost fields: %+v vs %+v", e, p)
	}
}

func TestFrameStrings(t *testing.T) {
	d := &Frame{Kind: FrameData, Entries: []Entry{{Payload: []byte("abc")}}}
	if s := d.String(); !bytes.Contains([]byte(s), []byte("DATA")) {
		t.Fatalf("data frame string: %q", s)
	}
	c := &Frame{Kind: FrameRTS}
	if s := c.String(); !bytes.Contains([]byte(s), []byte("RTS")) {
		t.Fatalf("ctrl frame string: %q", s)
	}
	if FrameKind(200).String() == "" {
		t.Fatal("unknown kind string empty")
	}
}

// Property: any data frame with random well-formed entries round-trips.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(src, dst uint8, flows []uint8, sizes []uint8) bool {
		fr := &Frame{Kind: FrameData, Src: NodeID(src), Dst: NodeID(dst)}
		n := len(flows)
		if len(sizes) < n {
			n = len(sizes)
		}
		if n > 20 {
			n = 20
		}
		for i := 0; i < n; i++ {
			fr.Entries = append(fr.Entries, Entry{
				Flow:    FlowID(flows[i]),
				Msg:     MsgID(i * 7),
				Seq:     i,
				Last:    i%2 == 0,
				Class:   ClassID(flows[i] % uint8(NumClasses)),
				Recv:    RecvMode(flows[i] % 2),
				Payload: bytes.Repeat([]byte{flows[i]}, int(sizes[i])),
			})
		}
		enc := fr.Encode(nil)
		got := &Frame{}
		used, err := DecodeInto(got, enc)
		if err != nil || used != len(enc) {
			return false
		}
		if len(got.Entries) != len(fr.Entries) {
			return false
		}
		for i := range fr.Entries {
			w, g := fr.Entries[i], got.Entries[i]
			if w.Flow != g.Flow || w.Msg != g.Msg || w.Seq != g.Seq ||
				w.Last != g.Last || w.Class != g.Class || w.Recv != g.Recv {
				return false
			}
			if !bytes.Equal(w.Payload, g.Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- pooling-aware codec -------------------------------------------------

func TestDecodeIntoReusesEntries(t *testing.T) {
	f1 := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
		{Flow: 1, Msg: 1, Seq: 0, Payload: []byte("one")},
		{Flow: 2, Msg: 1, Seq: 0, Last: true, Payload: []byte("two")},
	}}
	enc := f1.Encode(nil)

	var into Frame
	n, err := DecodeInto(&into, enc)
	if err != nil || n != len(enc) {
		t.Fatalf("DecodeInto: n=%d err=%v", n, err)
	}
	prevCap := cap(into.Entries)

	// A second decode of a smaller frame must reuse the backing array.
	f2 := &Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
		{Flow: 3, Msg: 1, Seq: 0, Last: true, Payload: []byte("three")},
	}}
	enc2 := f2.Encode(nil)
	if _, err := DecodeInto(&into, enc2); err != nil {
		t.Fatal(err)
	}
	if cap(into.Entries) != prevCap {
		t.Fatalf("Entries backing array not reused: cap %d -> %d", prevCap, cap(into.Entries))
	}
	if len(into.Entries) != 1 || string(into.Entries[0].Payload) != "three" {
		t.Fatalf("bad reuse decode: %+v", into.Entries)
	}
	// Control decode into the same frame must clear data-frame state.
	ctrl := &Frame{Kind: FrameAck, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 5}}
	if _, err := DecodeInto(&into, ctrl.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	if len(into.Entries) != 0 || into.Ctrl.Token != 5 {
		t.Fatalf("stale state after control decode: %+v", into)
	}
}

func TestDecodeClampsEntryPrealloc(t *testing.T) {
	// A header whose count field demands 65535 entries over an empty body
	// must fail with ErrTruncated without ever allocating room for them.
	bomb := (&Frame{Kind: FrameData, Src: 1, Dst: 2}).Encode(nil)
	bomb[3], bomb[4] = 0xFF, 0xFF
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeInto(&Frame{}, bomb); err != ErrTruncated {
			t.Fatalf("expected ErrTruncated, got %v", err)
		}
	})
	// One Frame alloc per run is fine; a 64Ki-entry slice (~4 MiB) is not.
	if allocs > 2 {
		t.Fatalf("decode of count-bomb frame cost %.0f allocs/run", allocs)
	}
}

// TestWireGolden pins the wire format by bytes: one committed vector per
// frame kind (plus the empty-entry, no-entry and empty-bulk shapes), taken
// from the encoder as it stood when Encode and EncodeVec were still two
// independent copies of the layout. A format change must change these on
// purpose.
func TestWireGolden(t *testing.T) {
	golden := []struct {
		f   *Frame
		hex string
	}{
		{&Frame{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
			{Flow: 1, Msg: 2, Seq: 0, Payload: []byte("head")},
			{Flow: 1, Msg: 2, Seq: 1}, // empty payload entry
			{Flow: 2, Msg: 1, Seq: 3, Last: true, Class: ClassBulk, Recv: RecvExpress, Payload: []byte("tail!")},
		}}, "4d61000003000000010000000200000001000000000000000200000000000000000468656164000000010000000000000002000000010000000000000000020000000000000001000000030b000000057461696c21"},
		{&Frame{Kind: FrameData, Src: 3, Dst: 4}, // no entries
			"4d610000000000000300000004"},
		{&Frame{Kind: FrameRTS, Src: 0, Dst: 3, Ctrl: Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20, Last: true}},
			"4d6101000000000000000000030000000000000007000000040000000000000005000000060010000001"},
		{&Frame{Kind: FrameCTS, Src: 3, Dst: 0, Ctrl: Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20}},
			"4d6102000000000003000000000000000000000007000000040000000000000005000000060010000000"},
		{&Frame{Kind: FrameRData, Src: 0, Dst: 3, Ctrl: Ctrl{Token: 7, Flow: 4, Seq: 6, Size: 4}, Bulk: []byte{0xCD, 0xCD, 0xCD, 0xCD}},
			"4d610300000000000000000003000000000000000700000004000000000000000000000006000000040000000004cdcdcdcd"},
		{&Frame{Kind: FramePut, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 9}}, // empty bulk
			"4d610400000000000200000001000000000000000900000000000000000000000000000000000000000000000000"},
		{&Frame{Kind: FrameGet, Src: 1, Dst: 2, Ctrl: Ctrl{Token: 10, Size: 48}},
			"4d610500000000000100000002000000000000000a000000000000000000000000000000000000003000"},
		{&Frame{Kind: FrameGetReply, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 10, Size: 3}, Bulk: []byte{0x22, 0x22, 0x22}},
			"4d610600000000000200000001000000000000000a00000000000000000000000000000000000000030000000003222222"},
		{&Frame{Kind: FrameAck, Src: 5, Dst: 6, Ctrl: Ctrl{Token: 11, Flow: 1, Last: true}},
			"4d610700000000000500000006000000000000000b000000010000000000000000000000000000000001"},
	}
	kinds := map[FrameKind]bool{}
	var vec [][]byte
	var meta []byte
	for _, g := range golden {
		kinds[g.f.Kind] = true
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.f.Encode(nil); !bytes.Equal(got, want) {
			t.Fatalf("%v: wire bytes changed\n got %x\nwant %x", g.f.Kind, got, want)
		}
		if g.f.WireSize() != len(want) {
			t.Fatalf("%v: WireSize %d, golden is %d bytes", g.f.Kind, g.f.WireSize(), len(want))
		}
		// Pre-existing meta bytes (a transport length prefix) must become
		// the head of the first gather segment, ahead of the same bytes.
		meta = append(meta[:0], 0xDE, 0xAD)
		vec, meta = g.f.EncodeVec(vec[:0], meta)
		var got []byte
		for _, seg := range vec {
			got = append(got, seg...)
		}
		if !bytes.Equal(got, append([]byte{0xDE, 0xAD}, want...)) {
			t.Fatalf("%v: gather list with prefix\n got %x\nwant dead%x", g.f.Kind, got, want)
		}
	}
	if len(kinds) != int(frameKindMax) {
		t.Fatalf("golden vectors cover %d of %d frame kinds", len(kinds), frameKindMax)
	}
}
