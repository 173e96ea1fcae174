package drivers

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/packet"
)

// The rail lifecycle.
//
// One rail is one TCP connection toward one peer. Its owner goroutine,
// started by Dial, writes the frames handed to it and, in the graceful
// paths, is the only goroutine that closes the socket. Post may write a
// frame itself while nothing is queued (see Mesh.Post); the rail's wmu
// makes the two writers take turns. Every state transition happens under
// Mesh.mu:
//
//	       Dial                Dial (replace)           queue drained
//	───▶ railActive ─────────▶ railDraining ──────────▶ railClosed
//	         │                      │                        ▲
//	         │ Close                │ write error            │
//	         └──────────────────────┴── down=true ───────────┘
//	                                    (loss surfaced via onDown /
//	                                     ErrPeerDown or handed to onLost,
//	                                     never silent)
//
// railActive: the rail is m.peers[peer]; Post enqueues frames, the owner
// writes them. railDraining: a re-Dial installed a replacement. The queue
// is closed but the socket stays open: the owner keeps writing the frames
// that were queued before the replacement (the drain), announces the
// retirement in-band, then closes the socket and exits. Frames queued on
// the retired connection therefore arrive; they are never marked sent and
// dropped. railClosed: the owner has exited and the socket is closed.
//
// A write error at any point sets the orthogonal down flag. If it strikes
// during a drain of a live connection with no frame-loss handler installed,
// the frames still queued on it are lost, so the peer as a whole is taken
// down (the replacement included): the loss surfaces through the peer-down
// handler and ErrPeerDown instead of wedging the destination flow silently.
// With a loss handler the frames are handed back for failover, and a
// connection already down (BreakPeer before the re-dial) had its loss
// surfaced then; either way the replacement stays up.
//
// A read error on the peer's newest inbound connection takes the current
// rail down too, within one epoch. A peer's epoch grows each time its
// current rail goes down (BreakPeer, a write error, a read error); Dial
// stamps the rail it builds with it and the reader stamps each inbound
// registration. An inbound connection registered before the rail's epoch
// belongs to a rail that already went down: its end, read after the re-dial
// but before the peer's new hello, leaves the replacement up (the
// replacement's own write errors surface a peer that really died).
//
// Close retires abruptly — it closes sockets immediately to unwedge blocked
// writes — and the closed flag silences every error path.
type rail struct {
	c     net.Conn
	q     chan railTx
	state railState
	down  bool
	epoch uint64 // the peer's epoch when Dial built this rail
	// queued (under Mesh.mu) counts frames the owner has yet to finish: Post
	// writes inline only at zero. upcalls counts inline completions' idle
	// upcalls in progress: a Post from inside one goes to the owner.
	queued  int
	upcalls atomic.Int32

	// wmu is held by whoever writes to c; the fields below are under it.
	wmu   sync.Mutex
	carry railTx      // an inline write's unfinished frame, for the owner
	tw    *tryWriter  // nil: Post never writes inline on this rail
	vec   [][]byte    // reused gather-list backing
	meta  []byte      // reused header scratch; gather segments alias it
	bufs  net.Buffers // WriteTo's receiver escapes: one per rail, not per frame
}

type railState uint8

const (
	// railActive: current connection for its peer; accepts posts.
	railActive railState = iota
	// railDraining: replaced by a re-Dial; owner is writing out the queue.
	railDraining
	// railClosed: owner exited, socket closed.
	railClosed
)

// railTx is a frame handed to the owner, its channel and, for a carry, the
// bytes already written; a nil frame is the wake-up announcing a carry.
type railTx struct {
	ch  int
	f   *packet.Frame
	off int
}

// maxScratch bounds the header scratch a sender keeps between frames;
// anything larger is released back to the GC after the write. Since the
// scratch holds only frame and sub-packet headers (payloads travel by
// reference through the gather list), hitting this bound takes a
// pathologically wide aggregate.
const maxScratch = 1 << 16

// newRail builds the rail for a freshly dialed connection. The queue holds
// at most one entry per busy send channel, so enqueueing never blocks.
func newRail(c net.Conn, slots int) *rail {
	return &rail{c: c, q: make(chan railTx, slots), tw: newTryWriter(c)}
}

// encodeLocked lays f out as one vectored write minus its first off bytes:
// prefix and headers in reused scratch, payloads by reference (no copy).
// Caller holds r.wmu and scrubs after the write.
func (r *rail) encodeLocked(f *packet.Frame, off int) [][]byte {
	r.meta = append(r.meta[:0], 0, 0, 0, 0)
	binary.BigEndian.PutUint32(r.meta[0:4], uint32(f.WireSize()))
	r.vec, r.meta = f.EncodeVec(r.vec[:0], r.meta)
	vec := r.vec
	for off > 0 {
		k := min(off, len(vec[0]))
		vec[0], off = vec[0][k:], off-k
		if len(vec[0]) == 0 {
			vec = vec[1:]
		}
	}
	return vec
}

// scrubLocked drops the payload references and an oversized header block.
func (r *rail) scrubLocked() {
	clear(r.vec)
	if cap(r.meta) > maxScratch {
		r.meta = nil
	}
}

// writeInline is Post's own write (caller holds r.wmu and channel ch, with
// nothing queued on r): one non-blocking writev. What the socket does not
// take is carried over to the owner, ahead of any frame queued meanwhile.
func (m *Mesh) writeInline(r *rail, ch int, f *packet.Frame) {
	n := r.tw.write(r.encodeLocked(f, 0))
	r.scrubLocked()
	if n == f.WireSize()+4 {
		r.wmu.Unlock()
		packet.ReleaseFrame(f)
		r.upcalls.Add(1)
		m.releaseChannel(ch, nil)
		r.upcalls.Add(-1)
		return
	}
	r.carry = railTx{ch: ch, f: f, off: n}
	m.mu.Lock()
	r.queued++
	if r.state == railActive {
		r.q <- railTx{} // a retiring owner finds the carry on its way out
	}
	m.mu.Unlock()
	r.wmu.Unlock()
}

// sender is the rail's owner goroutine: it writes each frame handed to it (a
// carry from where the inline write stopped), then pools it and frees its
// channel. A write error takes the peer down and hands every frame aboard
// back, unreleased, to the frame-loss handler for failover; the owner drains
// on so no channel wedges, and retires the socket once the queue closes.
func (m *Mesh) sender(peer packet.NodeID, r *rail) {
	defer m.wg.Done()
	broken := false
	for open := true; open; {
		var next railTx
		next, open = <-r.q // closed: one last look for a carry, then retire
		r.wmu.Lock()
		carry := r.carry
		r.carry = railTx{}
		r.wmu.Unlock()
		for _, tx := range [2]railTx{carry, next} {
			if tx.f == nil {
				continue
			}
			if broken {
				// A straggler that raced the reclaim below: same treatment.
				m.framesLost(peer, []*packet.Frame{tx.f})
				m.releaseChannel(tx.ch, r)
				continue
			}
			r.wmu.Lock()
			r.bufs = r.encodeLocked(tx.f, tx.off) // WriteTo consumes bufs, r.vec keeps the backing
			_, err := r.bufs.WriteTo(r.c)
			r.scrubLocked()
			r.wmu.Unlock()
			if err != nil {
				broken = true
				m.railWriteFailed(peer, r)
				// The peer is marked down under m.mu, so no new frame can
				// enqueue: reclaim everything aboard right now rather than
				// waiting for retirement — failover wants the frames back
				// while the traffic they belong to is still in flight.
				lost := []*packet.Frame{tx.f}
				chans := []int{tx.ch}
			reclaim:
				for {
					select {
					case tx2, ok := <-r.q:
						if !ok {
							break reclaim
						}
						if tx2.f != nil {
							lost = append(lost, tx2.f)
							chans = append(chans, tx2.ch)
						}
					default:
						break reclaim
					}
				}
				m.framesLost(peer, lost)
				for _, ch := range chans {
					m.releaseChannel(ch, r)
				}
				continue
			}
			wire := tx.f.WireSize()
			packet.ReleaseFrame(tx.f) // on the socket: this owner was its last user
			if m.pacer != nil {
				m.pacer.serialize(wire + m.caps.PacketHeader)
			}
			m.releaseChannel(tx.ch, r)
		}
	}
	// Queue closed and drained. Announce the graceful retirement in-band (a
	// zero length prefix) so the peer's reader unregisters this connection
	// instead of reading the imminent EOF as a failure — without the
	// marker, an EOF processed before the replacement's hello would mark a
	// healthy peer down.
	if !broken {
		var zero [4]byte
		r.c.Write(zero[:])
	}
	m.railRetired(r)
}

// wirePacer enforces a capability record's bandwidth class on a real-socket
// rail (caps.EmulateWire): every frame reserves a serialization slot on the
// rail's emulated wire — one pipe shared by all peers, like a NIC's
// serializer — and the sender holds its channel busy until the slot has
// drained. Kernel sockets move the bytes as fast as they like; the pacing
// is what the optimizer observes, so a plain TCP rail behaves like the
// technology its record describes.
type wirePacer struct {
	bandwidth float64 // bytes per second

	mu       sync.Mutex
	nextFree time.Time
}

// serialize reserves the wire for n bytes and sleeps until the reservation
// has drained.
func (p *wirePacer) serialize(n int) {
	d := time.Duration(float64(n) / p.bandwidth * float64(time.Second))
	now := time.Now()
	p.mu.Lock()
	start := p.nextFree
	if now.After(start) {
		start = now
	}
	end := start.Add(d)
	p.nextFree = end
	p.mu.Unlock()
	time.Sleep(end.Sub(now))
}

// releaseChannel frees one send channel and fires the idle upcall. handed
// is the rail whose owner finished the frame, or nil for one Post wrote.
func (m *Mesh) releaseChannel(ch int, handed *rail) {
	m.mu.Lock()
	if handed != nil {
		handed.queued--
	}
	m.chans[ch] = false
	h := m.onIdle
	closed := m.closed
	m.mu.Unlock()
	if h != nil && !closed {
		h(ch)
	}
}

// railRetired finalizes an owner's exit: the socket is closed (idempotent —
// the error paths may have closed it already) and the rail leaves the
// draining set so Close stops tracking it.
func (m *Mesh) railRetired(r *rail) {
	r.c.Close()
	m.mu.Lock()
	r.state = railClosed
	delete(m.draining, r)
	m.mu.Unlock()
}
