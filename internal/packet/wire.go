package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"newmad/internal/simnet"
)

// Frame is one network transaction as produced by the optimizer and
// consumed by the transfer layer. A data frame carries one or more
// sub-packets (the aggregation unit); control frames implement the
// rendezvous and RMA protocols.
//
// The same binary encoding carries every frame across both drivers: the
// TCP mesh writes it to a socket, the simulated NIC lands it in the
// receiver's buffer, so the engine is tested against a single wire format.
type Frame struct {
	Kind FrameKind
	Src  NodeID
	Dst  NodeID

	// Entries holds the sub-packets of a FrameData.
	Entries []Entry

	// Ctrl describes the subject of RTS/CTS/ack/RMA frames.
	Ctrl Ctrl

	// Bulk is the payload of FrameRData and FramePut transactions.
	Bulk []byte

	// Posted is diagnostic post-time metadata (the telemetry Xmit span's
	// departure stamp). Like Entry.Enqueued it is not part of the wire
	// encoding: the simulated NIC copies it onto the frame it lands, and
	// it reads zero after a socket.
	Posted simnet.Time

	// Pool lifecycle state (see pool.go): whether this struct came from
	// the frame pool, the wire buffer its payload slices alias on the
	// receive path, and whether that buffer escaped to the application.
	pooled  bool
	backing *Buf
	pinned  bool
}

// FrameKind enumerates transaction types.
type FrameKind uint8

const (
	// FrameData is an eager data frame carrying 1..n sub-packets.
	FrameData FrameKind = iota
	// FrameRTS announces a rendezvous send (control class).
	FrameRTS
	// FrameCTS grants a rendezvous send; the receiver has posted buffers.
	FrameCTS
	// FrameRData carries the bulk payload of a granted rendezvous.
	FrameRData
	// FramePut carries an RMA put payload.
	FramePut
	// FrameGet requests an RMA get.
	FrameGet
	// FrameGetReply carries the data answering a FrameGet.
	FrameGetReply
	// FrameAck acknowledges completion (used by SendSafer fences and tests).
	FrameAck
	frameKindMax
)

// String returns the mnemonic.
func (k FrameKind) String() string {
	names := [...]string{"DATA", "RTS", "CTS", "RDATA", "PUT", "GET", "GETREPLY", "ACK"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Entry is a sub-packet inside a data frame.
type Entry struct {
	Flow    FlowID
	Msg     MsgID
	Seq     int
	Last    bool
	Class   ClassID
	Recv    RecvMode
	Payload []byte

	// Enqueued is diagnostic submission-time metadata, not part of the
	// wire encoding: the simulated NIC copies it onto the frame it lands,
	// and it reads zero after a socket.
	Enqueued simnet.Time
}

// EntryFromPacket builds the wire entry for a packet.
func EntryFromPacket(p *Packet) Entry {
	return Entry{
		Flow: p.Flow, Msg: p.Msg, Seq: p.Seq, Last: p.Last,
		Class: p.Class, Recv: p.Recv, Payload: p.Payload,
	}
}

// Ctrl carries the metadata of control transactions.
type Ctrl struct {
	// Token correlates RTS/CTS/RData (rendezvous handle) or Get/GetReply.
	Token uint64
	// Flow/Msg/Seq identify the fragment the control frame is about.
	Flow FlowID
	Msg  MsgID
	Seq  int
	// Size is the byte count being negotiated (RTS/Get) or confirmed.
	Size int
	// Last mirrors Packet.Last for the negotiated fragment.
	Last bool
}

// Wire-format size constants, used by the engine's cost accounting: one
// frame pays the link's PacketHeader plus HeaderSize; each aggregated
// sub-packet additionally pays SubHeaderSize. These overheads are what
// keeps infinite aggregation from being free.
const (
	frameMagic = 0x4D61 // "Ma"
	kindOffset = 2      // the kind byte follows the 2-byte magic

	// HeaderSize is the encoded frame header length.
	HeaderSize = 2 + 1 + 2 + 4 + 4 // magic, kind, count, src, dst
	// SubHeaderSize is the per-entry framing overhead inside a data frame.
	SubHeaderSize = 4 + 8 + 4 + 1 + 4 // flow, msg, seq, flags, len
	// CtrlSize is the encoded control block length.
	CtrlSize = 8 + 4 + 8 + 4 + 4 + 1 // token, flow, msg, seq, size, last

	// MaxFrameSize bounds one encoded frame (WireSize). A socket reader
	// treats a larger length prefix as a corrupt stream.
	MaxFrameSize = 64 << 20
	// MaxPayload is the largest payload one frame carries: MaxFrameSize
	// less the largest fixed overhead, a bulk frame's (RData, Put,
	// GetReply). The engine refuses larger packets and RMA spans.
	MaxPayload = MaxFrameSize - HeaderSize - CtrlSize - 4
)

// flag bits inside an entry's flags byte.
const (
	flagLast    = 1 << 0
	flagExpress = 1 << 1
	classShift  = 2 // class stored in bits 2..3
)

// WireSize returns the total encoded length of the frame in bytes; the
// simulated drivers charge serialization for exactly this many bytes.
func (f *Frame) WireSize() int {
	n := HeaderSize
	switch f.Kind {
	case FrameData:
		for i := range f.Entries {
			n += SubHeaderSize + len(f.Entries[i].Payload)
		}
	case FrameRData, FramePut, FrameGetReply:
		n += CtrlSize + 4 + len(f.Bulk)
	default:
		n += CtrlSize
	}
	return n
}

// PayloadSize returns the useful (application) bytes in the frame.
func (f *Frame) PayloadSize() int {
	switch f.Kind {
	case FrameData:
		n := 0
		for i := range f.Entries {
			n += len(f.Entries[i].Payload)
		}
		return n
	case FrameRData, FramePut, FrameGetReply:
		return len(f.Bulk)
	default:
		return 0
	}
}

// Encode appends the frame's wire form to dst and returns the result: the
// concatenation of EncodeVec's segments, which is where the layout lives.
// The copying form is for tests and fault injection; transports write the
// gather list.
func (f *Frame) Encode(dst []byte) []byte {
	vec, _ := f.EncodeVec(nil, nil)
	for _, seg := range vec {
		dst = append(dst, seg...)
	}
	return dst
}

// EncodeVec appends the frame's wire form to vec as a gather list: header
// and sub-header bytes are appended to the meta scratch buffer (grown once
// up front, so earlier segments never dangle) and payload/bulk slices are
// referenced directly — no payload memcpy. Any bytes already in meta (a
// transport's length prefix, say) become the head of the first segment.
// This is the one encoder: the wire layout is whatever its segments
// concatenate to (pinned by the golden vectors in wire_test.go).
//
// The caller owns meta and every payload until the write completes; reuse
// meta across frames (it holds only headers, ~HeaderSize +
// entries·SubHeaderSize bytes).
func (f *Frame) EncodeVec(vec [][]byte, meta []byte) ([][]byte, []byte) {
	need := len(meta) + HeaderSize
	switch f.Kind {
	case FrameData:
		need += len(f.Entries) * SubHeaderSize
	case FrameRData, FramePut, FrameGetReply:
		need += CtrlSize + 4
	default:
		need += CtrlSize
	}
	if cap(meta) < need {
		grown := make([]byte, len(meta), need)
		copy(grown, meta)
		meta = grown
	}
	segStart := 0

	var tmp [12]byte
	binary.BigEndian.PutUint16(tmp[0:], frameMagic)
	tmp[2] = byte(f.Kind)
	binary.BigEndian.PutUint16(tmp[3:], uint16(len(f.Entries)))
	meta = append(meta, tmp[:5]...)
	binary.BigEndian.PutUint32(tmp[0:], uint32(f.Src))
	binary.BigEndian.PutUint32(tmp[4:], uint32(f.Dst))
	meta = append(meta, tmp[:8]...)

	switch f.Kind {
	case FrameData:
		for i := range f.Entries {
			e := &f.Entries[i]
			binary.BigEndian.PutUint32(tmp[0:], uint32(e.Flow))
			binary.BigEndian.PutUint64(tmp[4:], uint64(e.Msg))
			meta = append(meta, tmp[:12]...)
			binary.BigEndian.PutUint32(tmp[0:], uint32(e.Seq))
			flags := byte(e.Class) << classShift
			if e.Last {
				flags |= flagLast
			}
			if e.Recv == RecvExpress {
				flags |= flagExpress
			}
			tmp[4] = flags
			binary.BigEndian.PutUint32(tmp[5:], uint32(len(e.Payload)))
			meta = append(meta, tmp[:9]...)
			if len(e.Payload) > 0 {
				vec = append(vec, meta[segStart:len(meta):len(meta)], e.Payload)
				segStart = len(meta)
			}
		}
	default:
		c := &f.Ctrl
		binary.BigEndian.PutUint64(tmp[0:], c.Token)
		binary.BigEndian.PutUint32(tmp[8:], uint32(c.Flow))
		meta = append(meta, tmp[:12]...)
		binary.BigEndian.PutUint64(tmp[0:], uint64(c.Msg))
		binary.BigEndian.PutUint32(tmp[8:], uint32(c.Seq))
		meta = append(meta, tmp[:12]...)
		binary.BigEndian.PutUint32(tmp[0:], uint32(c.Size))
		if c.Last {
			tmp[4] = 1
		} else {
			tmp[4] = 0
		}
		meta = append(meta, tmp[:5]...)
		if f.Kind == FrameRData || f.Kind == FramePut || f.Kind == FrameGetReply {
			binary.BigEndian.PutUint32(tmp[0:], uint32(len(f.Bulk)))
			meta = append(meta, tmp[:4]...)
			if len(f.Bulk) > 0 {
				vec = append(vec, meta[segStart:len(meta):len(meta)], f.Bulk)
				segStart = len(meta)
			}
		}
	}
	if len(meta) > segStart {
		vec = append(vec, meta[segStart:len(meta):len(meta)])
	}
	return vec, meta
}

// Decoding errors.
var (
	ErrTruncated = errors.New("packet: truncated frame")
	ErrBadMagic  = errors.New("packet: bad frame magic")
	ErrBadKind   = errors.New("packet: unknown frame kind")
)

// DecodeInto parses one frame from data into f, reusing f's Entries backing
// array, and returns the number of bytes consumed. Payload slices alias
// data — callers recycling data (the wire drivers) attach it with
// SetBacking so ReleaseFrame can route it back. On error f's contents are
// unspecified; reset or release it.
func DecodeInto(f *Frame, data []byte) (int, error) {
	if len(data) < HeaderSize {
		return 0, ErrTruncated
	}
	if binary.BigEndian.Uint16(data[0:]) != frameMagic {
		return 0, ErrBadMagic
	}
	kind := FrameKind(data[kindOffset])
	if kind >= frameKindMax {
		return 0, ErrBadKind
	}
	count := int(binary.BigEndian.Uint16(data[3:]))
	f.Kind = kind
	f.Src = NodeID(binary.BigEndian.Uint32(data[5:]))
	f.Dst = NodeID(binary.BigEndian.Uint32(data[9:]))
	f.Entries = f.Entries[:0]
	f.Ctrl = Ctrl{}
	f.Bulk = nil
	off := HeaderSize

	switch kind {
	case FrameData:
		// The 16-bit wire count is unvalidated input: clamp the
		// preallocation to what the remaining bytes could possibly hold
		// (one SubHeaderSize minimum per entry), so a garbage count of
		// 65535 cannot demand a ~64Ki-entry allocation before the
		// truncation check below trips on the first missing sub-header.
		if maxEntries := (len(data) - HeaderSize) / SubHeaderSize; count > maxEntries {
			if cap(f.Entries) < maxEntries {
				f.Entries = make([]Entry, 0, maxEntries)
			}
		} else if cap(f.Entries) < count {
			f.Entries = make([]Entry, 0, count)
		}
		for i := 0; i < count; i++ {
			if len(data) < off+SubHeaderSize {
				return 0, ErrTruncated
			}
			var e Entry
			e.Flow = FlowID(binary.BigEndian.Uint32(data[off:]))
			e.Msg = MsgID(binary.BigEndian.Uint64(data[off+4:]))
			e.Seq = int(binary.BigEndian.Uint32(data[off+12:]))
			flags := data[off+16]
			e.Last = flags&flagLast != 0
			if flags&flagExpress != 0 {
				e.Recv = RecvExpress
			}
			e.Class = ClassID((flags >> classShift) & 0x3)
			plen := int(binary.BigEndian.Uint32(data[off+17:]))
			off += SubHeaderSize
			if len(data) < off+plen {
				return 0, ErrTruncated
			}
			e.Payload = data[off : off+plen : off+plen]
			off += plen
			f.Entries = append(f.Entries, e)
		}
	default:
		if len(data) < off+CtrlSize {
			return 0, ErrTruncated
		}
		c := &f.Ctrl
		c.Token = binary.BigEndian.Uint64(data[off:])
		c.Flow = FlowID(binary.BigEndian.Uint32(data[off+8:]))
		c.Msg = MsgID(binary.BigEndian.Uint64(data[off+12:]))
		c.Seq = int(binary.BigEndian.Uint32(data[off+20:]))
		c.Size = int(binary.BigEndian.Uint32(data[off+24:]))
		c.Last = data[off+28] != 0
		off += CtrlSize
		if kind == FrameRData || kind == FramePut || kind == FrameGetReply {
			if len(data) < off+4 {
				return 0, ErrTruncated
			}
			blen := int(binary.BigEndian.Uint32(data[off:]))
			off += 4
			if len(data) < off+blen {
				return 0, ErrTruncated
			}
			f.Bulk = data[off : off+blen : off+blen]
			off += blen
		}
	}
	return off, nil
}

// String summarizes the frame for traces.
func (f *Frame) String() string {
	switch f.Kind {
	case FrameData:
		return fmt.Sprintf("frame{%s n%d->n%d entries=%d payload=%dB}",
			f.Kind, f.Src, f.Dst, len(f.Entries), f.PayloadSize())
	default:
		return fmt.Sprintf("frame{%s n%d->n%d %s bulk=%dB}",
			f.Kind, f.Src, f.Dst, f.Ctrl, len(f.Bulk))
	}
}

// String renders the control block.
func (c Ctrl) String() string {
	return fmt.Sprintf("ctrl{tok=%d f%d/m%d/#%d size=%d last=%v}", c.Token, c.Flow, c.Msg, c.Seq, c.Size, c.Last)
}
