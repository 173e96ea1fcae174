package drivers

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"newmad/internal/packet"
)

// checkFrameSize is Mesh.Post's half of the wire limit: readers treat a
// length prefix beyond packet.MaxFrameSize as a corrupt stream, so Post
// fails at the call site instead of poisoning the link.
func checkFrameSize(f *packet.Frame) error {
	if n := f.WireSize(); n > packet.MaxFrameSize {
		return fmt.Errorf("drivers: frame of %d bytes exceeds the %d-byte wire limit", n, packet.MaxFrameSize)
	}
	return nil
}

// errEmptyFrame is readFrame's answer to a zero length prefix: no frame was
// read and the stream is still in sync. Mesh uses it as its in-band retire
// marker; to a reader without one it is a corrupt stream like any other.
var errEmptyFrame = errors.New("drivers: zero-length frame")

// readFrame reads one frame off a socket stream: a 4-byte big-endian length
// prefix, then that many bytes of packet wire encoding, landed by
// landFrame. Any error other than errEmptyFrame means the stream is lost
// (EOF, a prefix beyond MaxFrameSize or below a frame header, bytes
// DecodeInto rejects). Which buffer the bytes land in depends on the frame
// kind, peeked before the body is read — see packet.LandingBuf.
func readFrame(br *bufio.Reader) (*packet.Frame, error) {
	// Peek+Discard instead of ReadFull into a local: a local array passed
	// through io.Reader escapes, one allocation per frame.
	prefix, err := br.Peek(4)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(prefix))
	br.Discard(4) // cannot fail: Peek buffered these bytes
	switch {
	case n == 0:
		return nil, errEmptyFrame
	case n > packet.MaxFrameSize:
		return nil, fmt.Errorf("drivers: %d-byte frame exceeds the %d-byte limit", n, packet.MaxFrameSize)
	case n < packet.HeaderSize:
		// DecodeInto would reject it after the read; rejecting first keeps
		// the kind peek below inside this frame's own bytes.
		return nil, packet.ErrTruncated
	}
	head, err := br.Peek(packet.HeaderSize)
	if err != nil {
		return nil, err
	}
	buf := packet.LandingBuf(n, head)
	if _, err := io.ReadFull(br, buf.B); err != nil {
		packet.PutBuf(buf)
		return nil, err
	}
	return landFrame(buf)
}

// landFrame decodes the encoded frame in buf (from packet.LandingBuf) into a
// pooled frame that buf backs: the one place either driver turns bytes into
// frames. The receive handler chain borrows the frame and its terminal
// consumer calls packet.ReleaseFrame. On error buf is released.
func landFrame(buf *packet.Buf) (*packet.Frame, error) {
	f := packet.AcquireFrame()
	if _, err := packet.DecodeInto(f, buf.B); err != nil {
		packet.ReleaseFrame(f)
		packet.PutBuf(buf)
		return nil, err
	}
	f.SetBacking(buf)
	return f, nil
}
