// Package minimpi is a small message-passing middleware in the style of
// MPI point-to-point operations plus a barrier, built on the Madeleine
// packing API. It is one of the three middleware substrates that generate
// the concurrent structured flows the paper's optimizer feeds on.
//
// The API is callback-based rather than blocking because the engine runs
// to completion inside a discrete-event simulation: a Recv posts a request
// that is matched against inbound messages, and the callback fires during
// the simulation run (or, over the socket driver, whenever the message
// lands).
//
// Wire format per message: fragment 0 (express) is an 16-byte header
// carrying the tag and payload size; fragment 1 (cheaper) is the payload.
// Exactly the header/body split §3 of the paper describes.
package minimpi

import (
	"encoding/binary"
	"fmt"
	"sync"

	"newmad/internal/mad"
	"newmad/internal/packet"
)

// AnyTag matches any tag in Recv.
const AnyTag int64 = -1

// AnySource matches any source rank in Recv.
const AnySource = -1

// World is one rank's endpoint of an n-rank job.
type World struct {
	session *mad.Session
	rank    int
	size    int
	channel *mad.Channel

	mu         sync.Mutex
	posted     []*recvReq // posted receives awaiting messages
	unexpected []*envelope
	barrierSeq int
}

type recvReq struct {
	src int
	tag int64
	cb  func(src int, tag int64, data []byte)
}

type envelope struct {
	src  int
	tag  int64
	data []byte
}

// New creates the world endpoint for this session. size is the number of
// ranks; ranks are node ids 0..size-1 (one rank per node).
func New(session *mad.Session, size int) (*World, error) {
	rank := int(session.Node())
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("minimpi: node %d outside world of %d ranks", rank, size)
	}
	w := &World{
		session: session,
		rank:    rank,
		size:    size,
		channel: session.Channel("minimpi"),
	}
	w.channel.OnMessage(w.onMessage)
	return w, nil
}

const headerLen = 16

// Send posts a message to rank dst with the given tag. It returns once the
// message is handed to the optimizer (eager semantics; completion of the
// wire transfer is the engine's business).
func (w *World) Send(dst int, tag int64, data []byte) error {
	if dst < 0 || dst >= w.size || dst == w.rank {
		return fmt.Errorf("minimpi: bad destination rank %d", dst)
	}
	if tag < 0 {
		return fmt.Errorf("minimpi: negative tags are reserved")
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint64(hdr[0:], uint64(tag))
	binary.BigEndian.PutUint64(hdr[8:], uint64(len(data)))
	conn := w.channel.Connect(packet.NodeID(dst))
	m := conn.BeginPacking()
	m.Pack(hdr[:], mad.SendSafer, mad.RecvExpress)
	if len(data) > 0 {
		m.Pack(data, mad.SendCheaper, mad.RecvCheaper)
	}
	m.EndPacking()
	return nil
}

// Recv posts a receive for (src, tag); cb fires when a matching message
// arrives (possibly immediately, from the unexpected queue). src may be
// AnySource and tag may be AnyTag.
func (w *World) Recv(src int, tag int64, cb func(src int, tag int64, data []byte)) {
	if cb == nil {
		panic("minimpi: nil receive callback")
	}
	w.mu.Lock()
	for i, env := range w.unexpected {
		if matches(src, tag, env.src, env.tag) {
			w.unexpected = append(w.unexpected[:i], w.unexpected[i+1:]...)
			w.mu.Unlock()
			cb(env.src, env.tag, env.data)
			return
		}
	}
	w.posted = append(w.posted, &recvReq{src: src, tag: tag, cb: cb})
	w.mu.Unlock()
}

func matches(wantSrc int, wantTag int64, src int, tag int64) bool {
	if wantSrc != AnySource && wantSrc != src {
		return false
	}
	if wantTag != AnyTag && wantTag != tag {
		return false
	}
	return true
}

func (w *World) onMessage(src packet.NodeID, msg *mad.Incoming) {
	if len(msg.Fragments) < 1 || len(msg.Fragments[0]) != headerLen {
		panic(fmt.Sprintf("minimpi: malformed message from %d: %d fragments", src, len(msg.Fragments)))
	}
	tag := int64(binary.BigEndian.Uint64(msg.Fragments[0][0:]))
	size := int(binary.BigEndian.Uint64(msg.Fragments[0][8:]))
	var data []byte
	if size > 0 {
		if len(msg.Fragments) < 2 || len(msg.Fragments[1]) != size {
			panic(fmt.Sprintf("minimpi: header announced %d bytes, got %v fragments", size, len(msg.Fragments)))
		}
		data = msg.Fragments[1]
	}
	env := &envelope{src: int(src), tag: tag, data: data}

	w.mu.Lock()
	for i, req := range w.posted {
		if matches(req.src, req.tag, env.src, env.tag) {
			w.posted = append(w.posted[:i], w.posted[i+1:]...)
			w.mu.Unlock()
			req.cb(env.src, env.tag, env.data)
			return
		}
	}
	w.unexpected = append(w.unexpected, env)
	w.mu.Unlock()
}

// Pending returns (posted receives, unexpected messages) — test oracle for
// quiescence.
func (w *World) Pending() (posted, unexpected int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.posted), len(w.unexpected)
}
