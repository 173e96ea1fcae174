package drivers

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Loopback is a real TCP driver over localhost sockets. It exists so the
// optimization engine is exercised against a genuinely asynchronous
// transport: idle upcalls arrive from sender goroutines, deliveries from
// reader goroutines, and the wall clock supplies the time base.
//
// Each node runs one listener. Channels are independent sender goroutines;
// a channel is busy from Post until its frame has been fully written to the
// destination socket. One TCP connection is maintained per destination node
// and shared by the channels under a write lock (frames are written
// atomically: 4-byte length prefix + encoded frame).
type Loopback struct {
	node packet.NodeID
	caps caps.Caps
	mem  memsim.Model

	ln net.Listener

	mu       sync.Mutex
	conns    map[packet.NodeID]*lconn
	accepted []net.Conn // inbound connections, closed on shutdown
	chans    []*lchan
	onIdle   IdleFunc
	onRecv   RecvFunc
	closed   bool
	wg       sync.WaitGroup
}

type lconn struct {
	mu sync.Mutex // serializes frame writes
	c  net.Conn
}

type lchan struct {
	busy bool
	work chan loopTx
}

type loopTx struct {
	dst packet.NodeID
	f   *packet.Frame
}

var _ Driver = (*Loopback)(nil)

// NewLoopback creates a node endpoint listening on 127.0.0.1 (ephemeral
// port). Wire the cluster together with ConnectLoopback, or use
// NewLoopbackCluster for the common all-pairs case.
func NewLoopback(node packet.NodeID, c caps.Caps) (*Loopback, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &Loopback{
		node:  node,
		caps:  c,
		mem:   memsim.DefaultModel(),
		ln:    ln,
		conns: make(map[packet.NodeID]*lconn),
		chans: make([]*lchan, c.Channels),
	}
	for i := range l.chans {
		ch := &lchan{work: make(chan loopTx, 1)}
		l.chans[i] = ch
		l.wg.Add(1)
		go l.sender(i, ch)
	}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the listener address other nodes dial.
func (l *Loopback) Addr() string { return l.ln.Addr().String() }

// Dial connects this node to a peer's listener so frames can be sent to it.
func (l *Loopback) Dial(peer packet.NodeID, addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	// Identify ourselves so the peer can attribute inbound frames (frames
	// carry Src too; the hello lets the peer reader start attributed).
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(l.node))
	if _, err := c.Write(hello[:]); err != nil {
		c.Close()
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Close()
		return fmt.Errorf("drivers: loopback node %d: %w", l.node, ErrClosed)
	}
	if old, dup := l.conns[peer]; dup {
		old.c.Close()
	}
	l.conns[peer] = &lconn{c: c}
	return nil
}

func (l *Loopback) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.accepted = append(l.accepted, c)
		l.mu.Unlock()
		l.wg.Add(1)
		go l.reader(c)
	}
}

func (l *Loopback) reader(c net.Conn) {
	defer l.wg.Done()
	defer c.Close()
	br := bufio.NewReader(c)
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return
	}
	src := packet.NodeID(binary.BigEndian.Uint32(hello[:]))
	for {
		// No retire marker on this driver: errEmptyFrame is one more way
		// for the stream to be corrupt.
		f, err := readFrame(br)
		if err != nil {
			return
		}
		l.mu.Lock()
		h := l.onRecv
		l.mu.Unlock()
		if h != nil {
			h(src, f)
		} else {
			packet.ReleaseFrame(f)
		}
	}
}

func (l *Loopback) sender(idx int, ch *lchan) {
	defer l.wg.Done()
	var (
		vecScratch [][]byte    // reused gather-list backing
		meta       []byte      // reused header scratch; gather segments alias it
		bufs       net.Buffers // WriteTo's receiver escapes: one per sender, not per frame
	)
	for tx := range ch.work {
		l.mu.Lock()
		conn := l.conns[tx.dst]
		l.mu.Unlock()
		if conn != nil {
			// Vectored write: headers from the scratch block, payloads by
			// reference — no staging copy of the payload bytes.
			meta = append(meta[:0], 0, 0, 0, 0)
			binary.BigEndian.PutUint32(meta[0:4], uint32(tx.f.WireSize()))
			vecScratch, meta = tx.f.EncodeVec(vecScratch[:0], meta)
			conn.mu.Lock()
			bufs = vecScratch // WriteTo consumes bufs, vecScratch keeps the backing
			_, err := bufs.WriteTo(conn.c)
			conn.mu.Unlock()
			for i := range vecScratch {
				vecScratch[i] = nil // drop payload refs; backing is reused
			}
			if cap(meta) > maxScratch {
				// As in the mesh rails: one pathologically wide aggregate
				// must not pin a large header block to this channel.
				meta = nil
			}
			_ = err // a broken peer surfaces as missing deliveries in tests
		}
		// Written or undeliverable: either way this sender consumed the
		// frame terminally.
		packet.ReleaseFrame(tx.f)
		l.mu.Lock()
		ch.busy = false
		h := l.onIdle
		closed := l.closed
		l.mu.Unlock()
		if h != nil && !closed {
			h(idx)
		}
	}
}

// Name identifies the endpoint.
func (l *Loopback) Name() string { return fmt.Sprintf("loopback@n%d", l.node) }

// Node returns the local node id.
func (l *Loopback) Node() packet.NodeID { return l.node }

// Caps returns the capability record used for optimization decisions.
func (l *Loopback) Caps() caps.Caps { return l.caps }

// Mem returns the host memory model.
func (l *Loopback) Mem() memsim.Model { return l.mem }

// NumChannels returns the configured sender count.
func (l *Loopback) NumChannels() int { return len(l.chans) }

// ChannelIdle reports availability of channel ch.
func (l *Loopback) ChannelIdle(ch int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.chans[ch].busy
}

// FirstIdle returns the lowest idle channel.
func (l *Loopback) FirstIdle() (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, c := range l.chans {
		if !c.busy {
			return i, true
		}
	}
	return 0, false
}

// Post hands the frame to the channel's sender goroutine. hostExtra is
// ignored: on a real transport, preparation already took real time.
//
// Encoding is deferred to the sender goroutine (as in Mesh), so the caller
// must treat the frame and its payloads as immutable once posted; a
// successfully written frame is released to the frame pool by the sender.
func (l *Loopback) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	if ch < 0 || ch >= len(l.chans) {
		return fmt.Errorf("drivers: loopback node %d has no channel %d", l.node, ch)
	}
	if f.Src != l.node {
		return fmt.Errorf("drivers: frame src %d posted on node %d", f.Src, l.node)
	}
	if err := checkFrameSize(f); err != nil {
		return err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return fmt.Errorf("drivers: loopback node %d: %w", l.node, ErrClosed)
	}
	c := l.chans[ch]
	if c.busy {
		l.mu.Unlock()
		return ErrChannelBusy
	}
	if _, ok := l.conns[f.Dst]; !ok {
		l.mu.Unlock()
		return fmt.Errorf("drivers: node %d not connected to %d", l.node, f.Dst)
	}
	c.busy = true
	// Under the lock so the send cannot race Close closing the channel; the
	// busy flag guarantees the one-slot buffer is free, so it never blocks.
	c.work <- loopTx{dst: f.Dst, f: f}
	l.mu.Unlock()
	return nil
}

// SetIdleHandler installs the idle upcall (called from sender goroutines).
func (l *Loopback) SetIdleHandler(fn IdleFunc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onIdle = fn
}

// SetRecvHandler installs the delivery upcall (called from reader
// goroutines).
func (l *Loopback) SetRecvHandler(fn RecvFunc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.onRecv = fn
}

// Close shuts the listener, the connections and the sender goroutines down
// and waits for them.
func (l *Loopback) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for _, c := range l.conns {
		c.c.Close()
	}
	for _, c := range l.accepted {
		c.Close()
	}
	for _, ch := range l.chans {
		close(ch.work)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// NewLoopbackCluster creates n fully connected loopback nodes sharing the
// given capability profile. The returned cleanup closes every node.
func NewLoopbackCluster(n int, c caps.Caps) ([]*Loopback, func(), error) {
	return newWallCluster(n, func(node packet.NodeID) (*Loopback, error) {
		return NewLoopback(node, c)
	})
}
