package drivers

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// ErrPeerDown is returned by Post when the destination peer's connection has
// failed. Unlike ErrChannelBusy this is not a scheduling bug: real networks
// lose nodes, and the optimizing layer (or the application above it) decides
// whether to reroute, buffer, or give up.
var ErrPeerDown = errors.New("drivers: peer down")

// Network opens the listeners and connections a Mesh runs over: one value
// per stream technology. TCP is the one shipping code uses; any network
// whose connections are ordered, reliable byte streams will do.
type Network interface {
	Listen(addr string) (net.Listener, error)
	Dial(addr string) (net.Conn, error)
}

// TCP is kernel TCP: ordinary host:port addresses, local or routable.
var TCP Network = tcpNet{}

type tcpNet struct{}

func (tcpNet) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
func (tcpNet) Dial(addr string) (net.Conn, error)       { return net.Dial("tcp", addr) }

// Mesh is a real multi-node stream transport: each node listens on one
// address, dials every peer, and exchanges length-prefixed frames in the
// wire encoding of internal/packet. It is the one real-socket driver — an
// N-endpoint mesh that spans localhost or real machines alike:
//
//   - One outbound connection per peer, owned by a dedicated sender
//     goroutine (the rail lifecycle in rails.go), so frames to different
//     destinations never serialize behind a shared write lock. A send
//     channel is busy from Post until its frame has been fully written to
//     the destination socket; the idle upcall then fires from that peer's
//     sender goroutine, or inside the Post that wrote the frame itself.
//   - Peer failure is a first-class event: a write or read error marks the
//     peer down, releases any channels with frames queued toward it (the
//     engine above must not wedge on a dead destination), and makes
//     subsequent Posts to that peer fail with ErrPeerDown. The rest of the
//     mesh keeps running.
//   - Re-dialing a connected peer replaces the connection through an
//     explicit retire→drain→replace transition (redial.go): frames queued
//     on the retired connection drain onto its socket and arrive, or the
//     loss is surfaced through the peer-down handler — never dropped
//     silently.
//
// One Mesh is one *rail* of a node: it advertises exactly one capability
// record. Multi-rail nodes — several NICs, possibly of different
// technologies, emulated here as several TCP connections per peer — run one
// Mesh per rail and hand all of them to the engine (see NewMeshRails), which
// fails frames over between them.
//
// The Mesh runs over any Network, in its addresses: on TCP, 127.0.0.1
// ephemeral ports in tests and examples, routable ones to span hosts. Post's
// inline write needs a connection with a raw fd (syscall.Conn); over any
// other, the rail's owner writes every frame.
type Mesh struct {
	node  packet.NodeID
	caps  caps.Caps
	mem   memsim.Model
	pacer *wirePacer // non-nil iff caps.EmulateWire

	nw      Network
	ln      net.Listener
	dialGen atomic.Uint64 // the last dial generation sent in a hello

	mu       sync.Mutex
	peers    map[packet.NodeID]*rail
	draining map[*rail]struct{}       // retired rails whose owners are still draining
	inbound  map[packet.NodeID]inConn // newest inbound conn per peer, until it ends
	inGen    map[packet.NodeID]uint64 // highest dial generation read per peer
	epoch    map[packet.NodeID]uint64 // per peer: times its outbound rail went down
	accepted map[net.Conn]struct{}    // live inbound connections
	chans    []bool                   // busy flags, one per send channel
	onIdle   IdleFunc
	onRecv   RecvFunc
	onDown   func(peer packet.NodeID)
	onLost   FrameLossHandler
	closed   bool
	wg       sync.WaitGroup
}

var _ Driver = (*Mesh)(nil)

// NewMesh creates a node endpoint listening on nw ("127.0.0.1:0" for an
// ephemeral localhost TCP port, ":0" or a routable host:port to span
// machines); Dial reaches peers through nw too. Wire the topology with Dial,
// or use NewMeshCluster for the all-pairs localhost case.
func NewMesh(node packet.NodeID, c caps.Caps, nw Network, listen string) (*Mesh, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ln, err := nw.Listen(listen)
	if err != nil {
		return nil, err
	}
	m := &Mesh{
		node:     node,
		caps:     c,
		mem:      memsim.DefaultModel(),
		nw:       nw,
		ln:       ln,
		peers:    make(map[packet.NodeID]*rail),
		draining: make(map[*rail]struct{}),
		inbound:  make(map[packet.NodeID]inConn),
		inGen:    make(map[packet.NodeID]uint64),
		epoch:    make(map[packet.NodeID]uint64),
		accepted: make(map[net.Conn]struct{}),
		chans:    make([]bool, c.Channels),
	}
	m.dialGen.Store(uint64(time.Now().UnixNano()))
	if c.EmulateWire {
		m.pacer = &wirePacer{bandwidth: c.Bandwidth}
	}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// NewMeshRails creates one Mesh endpoint on nw per capability profile for a
// node, each listening on an ephemeral localhost address. Profile names must
// be distinct (use caps.RailProfiles to derive uniquely named variants of
// one base profile).
func NewMeshRails(node packet.NodeID, profiles []caps.Caps, nw Network) ([]*Mesh, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("drivers: multi-rail node %d needs at least one rail profile", node)
	}
	seen := make(map[string]bool, len(profiles))
	for _, p := range profiles {
		if seen[p.Name] {
			return nil, fmt.Errorf("drivers: duplicate rail profile %q on node %d (rail names must be distinct)", p.Name, node)
		}
		seen[p.Name] = true
	}
	rails := make([]*Mesh, len(profiles))
	for i, p := range profiles {
		m, err := NewMesh(node, p, nw, "127.0.0.1:0")
		if err != nil {
			for _, prev := range rails[:i] {
				prev.Close()
			}
			return nil, err
		}
		rails[i] = m
	}
	return rails, nil
}

// Addr returns the listener address other nodes dial.
func (m *Mesh) Addr() string { return m.ln.Addr().String() }

func (m *Mesh) acceptLoop() {
	defer m.wg.Done()
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			c.Close()
			return
		}
		m.accepted[c] = struct{}{}
		m.mu.Unlock()
		m.wg.Add(1)
		go m.reader(c)
	}
}

// reader drains one inbound connection: hello, then length-prefixed frames.
// The hello registers it as the peer's newest unless a later dial generation
// was read (a superseded one still delivers). A read error ends it and, on
// the peer's newest connection, marks the sending peer down here too.
func (m *Mesh) reader(c net.Conn) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		delete(m.accepted, c)
		m.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReader(c)
	var h [helloSize]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return
	}
	src := packet.NodeID(binary.BigEndian.Uint32(h[0:4]))
	gen := binary.BigEndian.Uint64(h[4:])
	m.mu.Lock()
	if gen > m.inGen[src] {
		m.inGen[src], m.inbound[src] = gen, inConn{c, m.epoch[src]}
	}
	m.mu.Unlock()
	for {
		f, err := readFrame(br)
		if err == errEmptyFrame {
			// Graceful retire marker: the peer replaced this connection (a
			// re-dial) and has drained it. Unregister so the EOF that
			// follows reads as clean retirement, not as a peer failure —
			// even when the replacement's hello has not been processed yet.
			m.mu.Lock()
			if m.inbound[src].c == c {
				delete(m.inbound, src)
			}
			m.mu.Unlock()
			return
		}
		if err != nil {
			m.inboundFailed(src, c)
			return
		}
		m.mu.Lock()
		h := m.onRecv
		m.mu.Unlock()
		if h != nil {
			h(src, f)
		} else {
			packet.ReleaseFrame(f)
		}
	}
}

// Name identifies the endpoint; the capability profile name distinguishes
// the rails of a multi-rail node.
func (m *Mesh) Name() string { return fmt.Sprintf("mesh:%s@n%d", m.caps.Name, m.node) }

// Node returns the local node id.
func (m *Mesh) Node() packet.NodeID { return m.node }

// Caps returns the capability record used for optimization decisions.
func (m *Mesh) Caps() caps.Caps { return m.caps }

// Mem returns the host memory model.
func (m *Mesh) Mem() memsim.Model { return m.mem }

// NumChannels returns the configured send-unit count.
func (m *Mesh) NumChannels() int { return len(m.chans) }

// ChannelIdle reports availability of channel ch.
func (m *Mesh) ChannelIdle(ch int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.chans[ch]
}

// FirstIdle returns the lowest idle channel.
func (m *Mesh) FirstIdle() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, busy := range m.chans {
		if !busy {
			return i, true
		}
	}
	return 0, false
}

// Post hands the frame to the destination peer's sender goroutine, or
// writes it itself; it never blocks (hostExtra is ignored). FrameData goes
// to the owner: it is the asynchronous send unit the paper's idle
// activation needs, and it lets N rails write in parallel. Any other frame
// is written here (writeInline) when the rail is unpaced with nothing
// queued or in flight, unless the caller is inside an inline completion's
// idle upcall. The frame and its payloads are immutable once posted, until
// the write that releases the frame.
func (m *Mesh) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	if ch < 0 || ch >= len(m.chans) {
		return fmt.Errorf("drivers: mesh node %d has no channel %d", m.node, ch)
	}
	if f.Src != m.node {
		return fmt.Errorf("drivers: frame src %d posted on node %d", f.Src, m.node)
	}
	if err := checkFrameSize(f); err != nil {
		return err
	}
	m.mu.Lock()
	p, ok := m.peers[f.Dst]
	var err error
	switch {
	case m.closed:
		err = fmt.Errorf("drivers: mesh node %d: %w", m.node, ErrClosed)
	case m.chans[ch]:
		err = ErrChannelBusy
	case !ok:
		err = fmt.Errorf("drivers: node %d not connected to %d", m.node, f.Dst)
	case p.down:
		err = fmt.Errorf("drivers: node %d -> %d: %w", m.node, f.Dst, ErrPeerDown)
	}
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.chans[ch] = true
	if f.Kind != packet.FrameData && m.pacer == nil && p.tw != nil &&
		p.queued == 0 && p.upcalls.Load() == 0 && p.wmu.TryLock() {
		m.mu.Unlock()
		m.writeInline(p, ch, f)
		return nil
	}
	p.queued++
	p.q <- railTx{ch: ch, f: f}
	m.mu.Unlock()
	return nil
}

// LandsFrames implements FrameLander (see readFrame).
func (m *Mesh) LandsFrames() bool { return true }

// SetIdleHandler installs the idle upcall (see IdleFunc for its goroutines).
func (m *Mesh) SetIdleHandler(fn IdleFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onIdle = fn
}

// SetRecvHandler installs the delivery upcall (called from reader
// goroutines).
func (m *Mesh) SetRecvHandler(fn RecvFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onRecv = fn
}

// SetPeerDownHandler installs a callback fired once per failed peer (from
// the goroutine that observed the failure). Optional; installing none means
// failures surface only through ErrPeerDown on Post.
func (m *Mesh) SetPeerDownHandler(fn func(peer packet.NodeID)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onDown = fn
}

// SetFrameLossHandler installs the handler that receives frames reclaimed
// from a failed connection (see FrameLossHandler). Optional; with none
// installed, undelivered frames are dropped with the connection. Called from the failed rail's owner goroutine.
func (m *Mesh) SetFrameLossHandler(fn FrameLossHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onLost = fn
}

// framesLost hands reclaimed frames to the loss handler (unless the mesh is
// shutting down, where every loss is expected).
func (m *Mesh) framesLost(peer packet.NodeID, frames []*packet.Frame) {
	if len(frames) == 0 {
		return
	}
	m.mu.Lock()
	h := m.onLost
	closed := m.closed
	m.mu.Unlock()
	if h != nil && !closed {
		h(peer, frames)
	}
}

// BreakPeer forces the connection toward peer down, exactly as if the
// network had severed it: the socket closes (so the owner's next write
// fails and reclaims the queued frames, and the remote reader observes the
// reset), subsequent Posts fail with ErrPeerDown, and the peer-down
// handler fires once. The chaos layer's rail-flap fault; recovery is the
// ordinary re-Dial. Reports whether a live connection was broken.
func (m *Mesh) BreakPeer(peer packet.NodeID) bool {
	m.mu.Lock()
	p, ok := m.peers[peer]
	if !ok || m.closed || p.down {
		m.mu.Unlock()
		return false
	}
	p.down = true
	m.epoch[peer]++
	conn := p.c
	h := m.onDown
	m.mu.Unlock()
	conn.Close()
	if h != nil {
		h(peer)
	}
	return true
}

// PeerDown reports whether the peer's connection has failed.
func (m *Mesh) PeerDown(peer packet.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[peer]
	return ok && p.down
}

// Close shuts the listener, all connections and the per-rail sender
// goroutines down and waits for them. In-flight drains are aborted: their
// sockets close, which unwedges blocked writes.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, p := range m.peers {
		m.retireLocked(p, false)
	}
	for r := range m.draining {
		r.c.Close()
	}
	for c := range m.accepted {
		c.Close()
	}
	m.mu.Unlock()
	err := m.ln.Close()
	m.wg.Wait()
	return err
}

// NewMeshCluster creates n fully connected localhost TCP mesh nodes sharing
// the given capability profile. The returned cleanup closes every node; on
// failure everything already started is closed.
func NewMeshCluster(n int, c caps.Caps) ([]*Mesh, func(), error) { return newMeshCluster(TCP, n, c) }

func newMeshCluster(nw Network, n int, c caps.Caps) ([]*Mesh, func(), error) {
	nodes := make([]*Mesh, 0, n)
	cleanup := func() {
		for _, m := range nodes {
			m.Close()
		}
	}
	for i := 0; i < n; i++ {
		m, err := NewMesh(packet.NodeID(i), c, nw, "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		nodes = append(nodes, m)
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i == j {
				continue
			}
			if err := a.Dial(b.Node(), b.Addr()); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
	}
	return nodes, cleanup, nil
}
