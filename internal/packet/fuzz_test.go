package packet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"newmad/internal/simnet"
)

// DecodeInto must never panic, whatever bytes arrive: a real transport can
// deliver garbage, and the loopback driver feeds it straight from the
// socket. These adversarial-input tests are the property-based complement
// to the round-trip tests in wire_test.go.

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		// Any outcome is fine except a panic.
		defer func() {
			if recover() != nil {
				t.Errorf("DecodeInto panicked on %x", data)
			}
		}()
		_, _ = DecodeInto(&Frame{}, data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnCorruptedFrames(t *testing.T) {
	// Start from valid frames and flip bytes: corruption in the length
	// fields must surface as ErrTruncated/ErrBadKind, never a panic or an
	// out-of-range slice.
	rng := simnet.NewRNG(11)
	base := &Frame{
		Kind: FrameData, Src: 1, Dst: 2,
		Entries: []Entry{
			{Flow: 1, Msg: 2, Seq: 3, Last: true, Payload: make([]byte, 100)},
			{Flow: 2, Msg: 1, Seq: 0, Payload: make([]byte, 5)},
		},
	}
	enc := base.Encode(nil)
	for trial := 0; trial < 5000; trial++ {
		data := append([]byte(nil), enc...)
		flips := rng.Range(1, 4)
		for i := 0; i < flips; i++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if recover() != nil {
					t.Fatalf("DecodeInto panicked on corrupted frame (trial %d): %x", trial, data)
				}
			}()
			f := &Frame{}
			n, err := DecodeInto(f, data)
			if err == nil {
				// A successfully decoded frame must be internally
				// consistent: consumed bytes within bounds, payload
				// lengths sane.
				if n <= 0 || n > len(data) {
					t.Fatalf("consumed %d of %d", n, len(data))
				}
				for _, e := range f.Entries {
					if len(e.Payload) > len(data) {
						t.Fatal("entry payload exceeds input")
					}
				}
			}
		}()
	}
}

// fuzzSeedFrames is one representative frame per kind — the in-tree seed
// corpus (testdata/fuzz/FuzzDecode) holds their encodings plus corrupt
// variants, and FuzzDecode re-adds them programmatically so the seeds
// survive corpus pruning.
func fuzzSeedFrames() []*Frame {
	return []*Frame{
		{Kind: FrameData, Src: 1, Dst: 2, Entries: []Entry{
			{Flow: 1, Msg: 2, Seq: 0, Payload: []byte("head")},
			{Flow: 1, Msg: 2, Seq: 1, Last: true, Class: ClassSmall, Recv: RecvExpress, Payload: bytes.Repeat([]byte{0xAB}, 100)},
		}},
		{Kind: FrameRTS, Src: 0, Dst: 3, Ctrl: Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20, Last: true}},
		{Kind: FrameCTS, Src: 3, Dst: 0, Ctrl: Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20}},
		{Kind: FrameRData, Src: 0, Dst: 3, Ctrl: Ctrl{Token: 7, Flow: 4, Seq: 6, Size: 64}, Bulk: bytes.Repeat([]byte{0xCD}, 64)},
		{Kind: FramePut, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 9, Size: 32}, Bulk: bytes.Repeat([]byte{0x11}, 32)},
		{Kind: FrameGet, Src: 1, Dst: 2, Ctrl: Ctrl{Token: 10, Size: 48}},
		{Kind: FrameGetReply, Src: 2, Dst: 1, Ctrl: Ctrl{Token: 10, Size: 48}, Bulk: bytes.Repeat([]byte{0x22}, 48)},
		{Kind: FrameAck, Src: 5, Dst: 6, Ctrl: Ctrl{Token: 11, Flow: 1, Last: true}},
	}
}

// FuzzDecode is the go-fuzz harness for the wire path the real-socket mesh
// rails feed straight from their sockets: arbitrary bytes must never panic
// DecodeInto, every error must be one of the declared decode errors, and any
// successfully decoded frame must re-encode to a fixed point (encode →
// decode → encode is byte-identical, with WireSize agreeing).
func FuzzDecode(f *testing.F) {
	for _, fr := range fuzzSeedFrames() {
		f.Add(fr.Encode(nil))
	}
	// Corrupt shapes: empty, short, bad magic, bad kind, lying lengths.
	f.Add([]byte{})
	f.Add([]byte{0x4D})
	f.Add([]byte{0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x4D, 0x61, 0x63, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2})
	lying := fuzzSeedFrames()[0].Encode(nil)
	lying[3], lying[4] = 0xFF, 0xFF // entry count far beyond the data
	f.Add(lying)
	// Preallocation bomb: a minimal data-frame header whose count field
	// demands ~64Ki entries while the body holds none. DecodeInto must clamp
	// its Entries preallocation to what the bytes could possibly hold
	// instead of trusting the count.
	bomb := (&Frame{Kind: FrameData, Src: 1, Dst: 2}).Encode(nil)
	bomb[3], bomb[4] = 0xFF, 0xFF
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &Frame{}
		n, err := DecodeInto(fr, data)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadKind) {
				t.Fatalf("undeclared decode error %v on %x", err, data)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		enc := fr.Encode(nil)
		if len(enc) != fr.WireSize() {
			t.Fatalf("WireSize %d != encoded length %d", fr.WireSize(), len(enc))
		}
		// The vectored encoder must concatenate to Encode's bytes.
		vec, _ := fr.EncodeVec(nil, nil)
		var concat []byte
		for _, seg := range vec {
			concat = append(concat, seg...)
		}
		if !bytes.Equal(concat, enc) {
			t.Fatalf("EncodeVec disagrees with Encode:\n   vec %x\nencode %x", concat, enc)
		}
		fr2 := &Frame{}
		n2, err := DecodeInto(fr2, enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("re-decode consumed %d of %d", n2, len(enc))
		}
		if enc2 := fr2.Encode(nil); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

func TestDecodeNeverPanicsOnTruncations(t *testing.T) {
	base := &Frame{
		Kind: FramePut, Src: 3, Dst: 4,
		Ctrl: Ctrl{Token: 9, Flow: 1, Msg: 2, Seq: 3, Size: 64},
		Bulk: make([]byte, 64),
	}
	enc := base.Encode(nil)
	for cut := 0; cut <= len(enc); cut++ {
		func() {
			defer func() {
				if recover() != nil {
					t.Fatalf("DecodeInto panicked at truncation %d", cut)
				}
			}()
			_, _ = DecodeInto(&Frame{}, enc[:cut])
		}()
	}
}
