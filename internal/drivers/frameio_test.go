package drivers

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// chunkReader hands its bytes out in seeded random slices, the way a socket
// does: a frame's prefix, header and body arrive split anywhere.
type chunkReader struct {
	data []byte
	rng  *simnet.RNG
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + c.rng.Intn(min(len(p), len(c.data)))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// prefixed returns body behind its 4-byte length prefix.
func prefixed(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// seedFrames is one frame per kind, bulk kinds at a power-of-two payload.
func seedFrames() []*packet.Frame {
	bulk := bytes.Repeat([]byte{0xCD}, 1024)
	return []*packet.Frame{
		{Kind: packet.FrameData, Src: 1, Dst: 2, Entries: []packet.Entry{
			{Flow: 1, Msg: 2, Seq: 0, Payload: []byte("head")},
			{Flow: 1, Msg: 2, Seq: 1, Last: true, Recv: packet.RecvExpress, Payload: bytes.Repeat([]byte{0xAB}, 100)},
		}},
		{Kind: packet.FrameRTS, Src: 0, Dst: 3, Ctrl: packet.Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20, Last: true}},
		{Kind: packet.FrameCTS, Src: 3, Dst: 0, Ctrl: packet.Ctrl{Token: 7, Flow: 4, Msg: 5, Seq: 6, Size: 1 << 20}},
		{Kind: packet.FrameRData, Src: 0, Dst: 3, Ctrl: packet.Ctrl{Token: 7, Flow: 4, Seq: 6, Size: len(bulk)}, Bulk: bulk},
		{Kind: packet.FramePut, Src: 2, Dst: 1, Ctrl: packet.Ctrl{Token: 9, Size: len(bulk)}, Bulk: bulk},
		{Kind: packet.FrameGet, Src: 1, Dst: 2, Ctrl: packet.Ctrl{Token: 10, Size: 48}},
		{Kind: packet.FrameGetReply, Src: 2, Dst: 1, Ctrl: packet.Ctrl{Token: 10, Size: len(bulk)}, Bulk: bulk},
		{Kind: packet.FrameAck, Src: 5, Dst: 6, Ctrl: packet.Ctrl{Token: 11, Flow: 1, Last: true}},
	}
}

// FuzzReadFrame holds the socket drivers' shared reader to DecodeInto: for
// any body, reading it off a stream behind its length prefix — in whatever
// pieces the stream delivers — accepts exactly the bodies DecodeInto
// accepts, yields the same frame, and leaves the stream positioned at the
// next prefix; every rejected body loses the stream. The landing buffer is
// chosen from a peek at bytes the decoder has not yet validated, so the
// equivalence is what keeps that shortcut from becoming a second parser.
func FuzzReadFrame(f *testing.F) {
	for i, fr := range seedFrames() {
		enc := fr.Encode(nil)
		f.Add(enc, uint64(i))
		f.Add(enc[:len(enc)-1], uint64(i))        // short frame
		f.Add(append(enc, 0xEE, 0xEE), uint64(i)) // prefix longer than the frame: slack is ignored
	}
	// Inner bulk length beyond what the prefix covers.
	lying := seedFrames()[3].Encode(nil)
	binary.BigEndian.PutUint32(lying[packet.HeaderSize+packet.CtrlSize:], 1<<20)
	f.Add(lying, uint64(1))
	f.Add([]byte{}, uint64(2))
	f.Add([]byte{0x4D, 0x61, 3}, uint64(3)) // below a header, kind byte says RData
	f.Add([]byte{0x4D, 0x61, 0x63, 0, 1, 0, 0, 0, 1, 0, 0, 0, 2}, uint64(4))

	sentinel := seedFrames()[7].Encode(nil)
	f.Fuzz(func(t *testing.T, body []byte, seed uint64) {
		var want packet.Frame
		_, wantErr := packet.DecodeInto(&want, body)

		stream := append(prefixed(body), prefixed(sentinel)...)
		br := bufio.NewReader(&chunkReader{data: stream, rng: simnet.NewRNG(seed)})
		got, err := readFrame(br)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("readFrame err %v, DecodeInto err %v, body %x", err, wantErr, body)
		}
		if err != nil {
			return
		}
		if !got.Backed() {
			t.Fatal("accepted frame carries no backing buffer")
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst || got.Ctrl != want.Ctrl ||
			!bytes.Equal(got.Encode(nil), want.Encode(nil)) {
			t.Fatalf("readFrame decoded %v, DecodeInto %v", got, &want)
		}
		packet.ReleaseFrame(got)
		next, err := readFrame(br)
		if err != nil {
			t.Fatalf("stream out of step after an accepted frame: %v", err)
		}
		if !bytes.Equal(next.Encode(nil), sentinel) {
			t.Fatalf("frame after an accepted one decoded as %v", next)
		}
		packet.ReleaseFrame(next)
	})
}

// TestReadFrameStreamErrors covers what the fuzz body cannot express as a
// DecodeInto verdict: the prefix-level refusals and a stream that ends early.
func TestReadFrameStreamErrors(t *testing.T) {
	rdata := seedFrames()[3].Encode(nil)
	oversize := binary.BigEndian.AppendUint32(nil, packet.MaxFrameSize+1)
	cases := []struct {
		name   string
		stream []byte
		want   error // nil: any error will do
	}{
		{"retire marker", []byte{0, 0, 0, 0}, errEmptyFrame},
		{"oversize prefix", append(oversize, rdata...), nil},
		{"prefix below a header", prefixed(rdata[:packet.HeaderSize-1]), packet.ErrTruncated},
		{"stream ends inside the prefix", []byte{0, 0}, nil},
		{"stream ends inside the header", prefixed(rdata)[:4+5], nil},
		{"stream ends inside the body", prefixed(rdata)[:4+len(rdata)/2], nil},
		{"clean end of stream", nil, io.EOF},
	}
	for _, c := range cases {
		br := bufio.NewReader(&chunkReader{data: c.stream, rng: simnet.NewRNG(1)})
		f, err := readFrame(br)
		if err == nil {
			t.Errorf("%s: accepted %v", c.name, f)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: error %v, want %v", c.name, err, c.want)
		}
	}
}
