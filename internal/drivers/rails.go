package drivers

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"newmad/internal/packet"
)

// The rail lifecycle.
//
// One rail is one TCP connection toward one peer. Exactly one goroutine —
// the rail's owner, started by Dial — writes to the socket, and in the
// graceful paths it is also the only goroutine that closes it. Every state
// transition happens under Mesh.mu:
//
//	       Dial                Dial (replace)           queue drained
//	───▶ railActive ─────────▶ railDraining ──────────▶ railClosed
//	         │                      │                        ▲
//	         │ Close                │ write error            │
//	         └──────────────────────┴── down=true ───────────┘
//	                                    (loss surfaced via onDown /
//	                                     ErrPeerDown, never silent)
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
// during a drain, the frames still queued on the dying connection are lost
// with it, so the peer as a whole is taken down (the replacement included):
// the loss surfaces through the peer-down handler and ErrPeerDown instead
// of wedging the destination flow silently. Close retires abruptly — it
// closes sockets immediately to unwedge blocked writes — and the closed
// flag silences every error path.
type rail struct {
	c     net.Conn
	q     chan railTx
	state railState
	down  bool
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

// railTx is one queued frame: the channel it occupies and the frame itself.
// Encoding is deferred to the rail's owner (see Mesh.Post), so the payload
// copy runs on the rail's goroutine instead of under the engine lock.
type railTx struct {
	ch int
	f  *packet.Frame
}

// maxScratch bounds the header scratch a sender keeps between frames;
// anything larger is released back to the GC after the write. Since the
// scratch holds only frame and sub-packet headers (payloads travel by
// reference through the gather list), hitting this bound takes a
// pathologically wide aggregate.
const maxScratch = 1 << 16

// newRail builds the rail for a freshly dialed connection. The queue holds
// at most one frame per send channel, so enqueueing under the driver lock
// never blocks.
func newRail(c net.Conn, slots int) *rail {
	return &rail{c: c, q: make(chan railTx, slots)}
}

// sender is the rail's owner goroutine: it writes each queued frame
// atomically as one vectored write — the 4-byte length prefix and every
// frame/sub-packet header come from a reused scratch block, the payload
// slices are handed to writev as-is, so payload bytes go from application
// memory to the socket without an intermediate copy — and then releases
// the channel that carried it. A successfully written frame is terminally
// consumed here: the owner returns it to the frame pool. On a write error
// the peer is taken down (railWriteFailed) and every frame still aboard —
// the one that failed mid-write plus everything queued behind it — is
// reclaimed and handed to the frame-loss handler (ownership moves back to
// the layer above, so reclaimed frames are NOT released), so the layer
// above can fail the frames over onto a surviving rail instead of losing
// them with the connection. The goroutine keeps draining so every channel
// pointed at the dead connection is released — the engine above sees idle
// upcalls, not a wedged send unit. When the queue closes (retirement) the
// owner finishes the drain and disposes of the socket.
func (m *Mesh) sender(peer packet.NodeID, r *rail) {
	defer m.wg.Done()
	broken := false
	var (
		vecScratch [][]byte    // reused gather-list backing
		meta       []byte      // reused header scratch; gather segments alias it
		bufs       net.Buffers // WriteTo's receiver escapes: one per owner, not per frame
	)
	for tx := range r.q {
		if !broken {
			wire := tx.f.WireSize()
			meta = append(meta[:0], 0, 0, 0, 0)
			binary.BigEndian.PutUint32(meta[0:4], uint32(wire))
			vecScratch, meta = tx.f.EncodeVec(vecScratch[:0], meta)
			bufs = vecScratch // WriteTo consumes bufs, vecScratch keeps the backing
			_, err := bufs.WriteTo(r.c)
			for i := range vecScratch {
				vecScratch[i] = nil // drop payload refs; the gather backing is reused
			}
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
						lost = append(lost, tx2.f)
						chans = append(chans, tx2.ch)
					default:
						break reclaim
					}
				}
				m.framesLost(peer, lost)
				for _, ch := range chans {
					m.releaseChannel(ch)
				}
				continue
			}
			// The frame is on the socket: this owner was its last user.
			packet.ReleaseFrame(tx.f)
			if m.pacer != nil {
				m.pacer.serialize(wire + m.caps.PacketHeader)
			}
			if cap(meta) > maxScratch {
				// Don't let one pathologically wide aggregate pin a large
				// header block to this connection for its lifetime.
				meta = nil
			}
		} else {
			// A straggler that raced the reclaim above: same treatment.
			m.framesLost(peer, []*packet.Frame{tx.f})
		}
		m.releaseChannel(tx.ch)
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

func newWirePacer(bandwidth float64) *wirePacer {
	return &wirePacer{bandwidth: bandwidth}
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

// releaseChannel frees one send channel and fires the idle upcall.
func (m *Mesh) releaseChannel(ch int) {
	m.mu.Lock()
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
