package drivers

import (
	"encoding/binary"
	"fmt"
	"net"

	"newmad/internal/packet"
)

// Connection replacement and failure surfacing — the retire→drain→replace
// half of the rail state machine in rails.go.

// Dial connects this node to a peer's listener. The connection is owned by
// a dedicated sender goroutine; its queue holds at most one frame per send
// channel, so enqueueing under the driver lock never blocks.
//
// Re-dialing an already connected peer — the recovery from ErrPeerDown, or
// a deliberate connection refresh — replaces the connection: new posts go
// to the replacement immediately, while the old rail retires gracefully.
// Its owner drains every frame that was queued before the replacement onto
// the old socket (the peer's reader keeps the superseded connection open
// until it sees EOF, so those frames still arrive), then closes it and
// exits. Pending frames are never marked sent and dropped; if the drain
// itself fails, the loss is surfaced through the peer-down handler and
// ErrPeerDown like any other connection failure.
func (m *Mesh) Dial(peer packet.NodeID, addr string) error {
	c, err := m.nw.Dial(addr)
	if err != nil {
		return err
	}
	// Identify ourselves so the peer's reader can attribute inbound frames.
	h := hello(m.node, m.dialGen.Add(1))
	if _, err := c.Write(h[:]); err != nil {
		c.Close()
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.Close()
		return fmt.Errorf("drivers: mesh node %d: %w", m.node, ErrClosed)
	}
	if old, dup := m.peers[peer]; dup {
		m.retireLocked(old, true)
	}
	r := newRail(c, len(m.chans))
	r.epoch = m.epoch[peer]
	m.peers[peer] = r
	m.wg.Add(1)
	m.mu.Unlock()
	go m.sender(peer, r)
	return nil
}

// helloSize is a connection's preamble: the dialer's node id and its dial
// generation, which grows with every Dial (from a wall-clock seed, so across
// restarts too) and tells a superseded connection from its replacement.
const helloSize = 12

func hello(node packet.NodeID, gen uint64) [helloSize]byte {
	var h [helloSize]byte
	binary.BigEndian.PutUint32(h[0:4], uint32(node))
	binary.BigEndian.PutUint64(h[4:], gen)
	return h
}

// retireLocked takes a rail out of service. A graceful retirement (re-dial
// replacement) closes the queue but leaves the socket open so the owner can
// drain the queued frames onto it; an abrupt one (shutdown) also closes the
// socket immediately, which unwedges a blocked write. Idempotent; caller
// holds m.mu.
func (m *Mesh) retireLocked(r *rail, graceful bool) {
	if r.state == railActive {
		r.state = railDraining
		close(r.q)
		m.draining[r] = struct{}{}
	}
	if !graceful {
		r.down = true
		r.c.Close()
	}
}

// railWriteFailed handles a write error on rail r toward peer. The error
// loses every frame still queued on r (plus the one mid-write). When r is
// the peer's current connection, or a draining predecessor that was live
// with no loss handler to take those frames back, the peer as a whole goes
// down: the current rail is marked down (subsequent Posts fail with
// ErrPeerDown), both sockets close, and the peer-down handler fires once.
// Surfacing the loss — rather than letting a retired connection die quietly
// with frames aboard — is what keeps a destination flow from wedging with no
// error anywhere. A predecessor whose loss was already surfaced (BreakPeer
// took it down before the re-dial) or whose frames the loss handler fails
// over leaves the replacement alone. During shutdown every error is
// expected and silenced.
func (m *Mesh) railWriteFailed(peer packet.NodeID, r *rail) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	wasLive := !r.down
	r.down = true
	var curConn net.Conn
	fire := false
	if cur, ok := m.peers[peer]; ok && !cur.down && (cur == r || wasLive && m.onLost == nil) {
		cur.down = true
		m.epoch[peer]++
		curConn = cur.c
		fire = true
	}
	h := m.onDown
	m.mu.Unlock()
	r.c.Close()
	if curConn != nil && curConn != r.c {
		curConn.Close()
	}
	if fire && h != nil {
		h(peer)
	}
}

// inboundFailed handles a read error on an inbound connection. Only the
// peer's newest connection counts — the highest dial generation whose
// hello has been read (see reader): a connection superseded by a re-dial
// retires through the in-band marker, and the errors of older generations
// are ignored, whichever hello arrived last. Nor does one registered
// before the current rail's epoch: the outbound rail went down and was
// re-dialed since, so this is the old connection's end read before the
// peer's new hello (the fresh rail's own write errors surface a peer that
// really died). What remains is the genuine failure surface — a connection
// that died without announcing retirement.
func (m *Mesh) inboundFailed(src packet.NodeID, c net.Conn) {
	m.mu.Lock()
	in := m.inbound[src]
	if m.closed || in.c != c {
		m.mu.Unlock()
		return
	}
	delete(m.inbound, src)
	p, ok := m.peers[src]
	if !ok || p.down || in.epoch < p.epoch {
		m.mu.Unlock()
		return
	}
	p.down = true
	m.epoch[src]++
	conn := p.c
	h := m.onDown
	m.mu.Unlock()
	conn.Close()
	if h != nil {
		h(src)
	}
}

// inConn is a peer's registered inbound connection and the peer's epoch
// when its hello was read.
type inConn struct {
	c     net.Conn
	epoch uint64
}
