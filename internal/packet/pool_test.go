package packet

import (
	"bytes"
	"testing"
)

func TestAcquireReleaseFrameRoundTrip(t *testing.T) {
	f := AcquireFrame()
	f.Kind = FrameData
	f.Src, f.Dst = 1, 2
	f.Entries = append(f.Entries, Entry{Flow: 1, Payload: []byte("abc")})
	ReleaseFrame(f)

	g := AcquireFrame()
	defer ReleaseFrame(g)
	// Whether or not g is the same struct, it must arrive reset.
	if g.Kind != 0 || g.Src != 0 || g.Dst != 0 || len(g.Entries) != 0 || g.Bulk != nil {
		t.Fatalf("acquired frame not reset: %+v", g)
	}
	if g.Backed() {
		t.Fatal("acquired frame claims a backing buffer")
	}
}

func TestReleaseFrameOnUnpooledFrameIsSafe(t *testing.T) {
	f := &Frame{Kind: FrameAck, Src: 3, Dst: 4, Ctrl: Ctrl{Token: 9}}
	ReleaseFrame(f)
	// An unpooled frame must not be mutated: its creator may still use it.
	if f.Kind != FrameAck || f.Ctrl.Token != 9 {
		t.Fatalf("ReleaseFrame mutated an unpooled frame: %+v", f)
	}
	ReleaseFrame(nil) // and nil is a no-op
}

func TestDoubleReleaseDoesNotDuplicatePoolEntries(t *testing.T) {
	f := AcquireFrame()
	ReleaseFrame(f)
	ReleaseFrame(f) // second release of the same object must be a no-op
	a := AcquireFrame()
	b := AcquireFrame()
	if a == b {
		t.Fatal("double release put the same frame in the pool twice")
	}
	ReleaseFrame(a)
	ReleaseFrame(b)
}

func TestBufPoolSizesAndReuse(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20} {
		b := GetBuf(n)
		if len(b.B) != n {
			t.Fatalf("GetBuf(%d) returned len %d", n, len(b.B))
		}
		PutBuf(b)
	}
	// Oversize buffers are served but not pooled.
	big := GetBuf(1<<20 + 1)
	if len(big.B) != 1<<20+1 {
		t.Fatalf("oversize GetBuf returned len %d", len(big.B))
	}
	PutBuf(big) // must not panic
	PutBuf(nil)
}

// TestLandingBufByKind pins the landing rule: the two kinds whose payload
// the dispatcher pins get exactly the frame's length — the case that matters
// is a power-of-two payload, which its headers push one size class up —
// and every other kind, valid or not, keeps the pooled classes.
func TestLandingBufByKind(t *testing.T) {
	const n = 256<<10 + HeaderSize + CtrlSize + 4 // a 256 KiB bulk frame
	for kind := 0; kind < 256; kind++ {
		head := []byte{0x4D, 0x61, byte(kind)}
		b := LandingBuf(n, head)
		if len(b.B) != n {
			t.Fatalf("kind %d: len %d, want %d", kind, len(b.B), n)
		}
		exact := FrameKind(kind) == FrameRData || FrameKind(kind) == FrameGetReply
		if exact && (cap(b.B) != n || b.class != -1) {
			t.Fatalf("%v: cap %d class %d, want an exact unpooled buffer", FrameKind(kind), cap(b.B), b.class)
		}
		if !exact && (cap(b.B) != 512<<10 || b.class < 0) {
			t.Fatalf("%v: cap %d class %d, want the pooled 512 KiB class", FrameKind(kind), cap(b.B), b.class)
		}
		// Either sort backs a frame and survives release.
		f := AcquireFrame()
		f.SetBacking(b)
		if !f.Backed() {
			t.Fatalf("%v: landing buffer does not back its frame", FrameKind(kind))
		}
		ReleaseFrame(f)
	}
}

func TestReleaseFrameRecyclesUnpinnedBacking(t *testing.T) {
	buf := GetBuf(600)
	f := AcquireFrame()
	f.SetBacking(buf)
	if !f.Backed() {
		t.Fatal("SetBacking did not register")
	}
	ReleaseFrame(f)
	// The buffer went back to its pool; a pinned one must not.
	buf2 := GetBuf(600)
	f2 := AcquireFrame()
	f2.SetBacking(buf2)
	f2.PinBacking()
	keep := buf2.B[:4]
	copy(keep, "keep")
	ReleaseFrame(f2)
	if !bytes.Equal(keep, []byte("keep")) {
		t.Fatal("pinned backing was clobbered")
	}
}

func TestResetDropsPayloadReferences(t *testing.T) {
	f := &Frame{Kind: FrameData, Entries: []Entry{{Payload: []byte("x")}, {Payload: []byte("y")}}}
	f.Bulk = []byte("bulk")
	f.Reset()
	if len(f.Entries) != 0 || f.Bulk != nil {
		t.Fatalf("Reset left state: %+v", f)
	}
	// The backing array must be retained but scrubbed of payload refs.
	es := f.Entries[:cap(f.Entries)]
	for i := range es {
		if es[i].Payload != nil {
			t.Fatal("Reset left a payload reference in the entries backing array")
		}
	}
}
