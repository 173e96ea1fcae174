package drivers

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// Tests of Post's inline path: a frame that is not FrameData, posted while
// nothing is queued on an unpaced rail, is written by the posting goroutine
// with one non-blocking writev, and whatever the socket does not take goes
// to the rail's owner.

// rawPeer is a listener that accepts one connection and reads nothing until
// told to: the peer that lets a sender's socket fill up.
type rawPeer struct {
	ln   net.Listener
	conn chan net.Conn
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rawPeer{ln: ln, conn: make(chan net.Conn, 1)}
	go func() {
		if c, err := ln.Accept(); err == nil {
			p.conn <- c
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return p
}

// dialRaw connects a fresh node 0 to a raw peer posing as node 1 and returns
// both ends; the raw side has read nothing yet.
func dialRaw(t *testing.T) (*Mesh, *net.TCPConn) {
	t.Helper()
	peer := newRawPeer(t)
	m, err := NewMesh(0, caps.TCP, TCP, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Dial(1, peer.ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	c := (<-peer.conn).(*net.TCPConn)
	t.Cleanup(func() { c.Close() })
	return m, c
}

// readFrames reads the hello and then n frames off the raw side, checking
// that they arrive in post order (sequence numbers 0..n-1) and intact.
func readFrames(t *testing.T, c net.Conn, n int) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(20 * time.Second))
	br := bufio.NewReader(c)
	if _, err := io.ReadFull(br, make([]byte, helloSize)); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < n; want++ {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if p, seq := carried(f); seq != want || !fingerprinted(p, seq) {
			t.Fatalf("frame %d arrived as seq %d (intact %v): bytes out of post order", want, seq, fingerprinted(p, seq))
		}
		packet.ReleaseFrame(f)
	}
}

// TestMeshPostNeverBlocks fills the socket toward a peer that reads nothing.
// Post runs under the engine's locks, so it must return promptly whatever
// the socket does: the inline write takes what fits and hands the rest to
// the owner, later posts queue behind it. Once the peer reads, the owner
// finishes every frame and the bytes arrive in post order.
func TestMeshPostNeverBlocks(t *testing.T) {
	m, peer := dialRaw(t)
	idle := make(chan int, 1024)
	m.SetIdleHandler(func(ch int) { idle <- ch })

	const size = 256 << 10
	posted := 0
	for full := false; !full; {
		if posted == 1000 {
			t.Fatal("the socket never filled against a peer that reads nothing")
		}
		ch, ok := m.FirstIdle()
		if !ok {
			select {
			case <-idle:
				continue
			case <-time.After(300 * time.Millisecond):
				full = true // every channel holds a frame the socket cannot take
				continue
			}
		}
		t0 := time.Now()
		if err := m.Post(ch, pooledBulk(0, 1, posted, size), 0); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d > 2*time.Second {
			t.Fatalf("Post %d blocked for %v on a full socket", posted, d)
		}
		posted++
	}
	readFrames(t, peer, posted)
	waitFor(t, 5*time.Second, "the owner to release every channel", func() bool {
		_, ok := m.FirstIdle()
		return ok && m.ChannelIdle(0) && m.ChannelIdle(1)
	})
}

// TestMeshShortWriteHandedToOwner shrinks both socket buffers so an inline
// writev of a large frame takes only part of it, while a second frame,
// posted as the inline write holds the socket, queues for the owner. The
// owner must write the rest of the first frame — not the whole frame again —
// before the second.
func TestMeshShortWriteHandedToOwner(t *testing.T) {
	m, peer := dialRaw(t)
	peer.SetReadBuffer(16 << 10)
	// Claim channel 0 and the socket the way Post's inline path does.
	m.mu.Lock()
	r := m.peers[1]
	r.c.(*net.TCPConn).SetWriteBuffer(16 << 10)
	m.chans[0] = true
	r.wmu.Lock()
	m.mu.Unlock()
	if err := m.Post(1, pooledBulk(0, 1, 1, 64), 0); err != nil {
		t.Fatal(err)
	}
	m.writeInline(r, 0, pooledBulk(0, 1, 0, 256<<10))
	if m.ChannelIdle(0) {
		t.Fatal("a 256 KiB frame went out whole through 16 KiB buffers: the short write went untested")
	}
	readFrames(t, peer, 2)
	waitFor(t, 5*time.Second, "channel release", func() bool { return m.ChannelIdle(0) && m.ChannelIdle(1) })
}

// TestMeshPostFromIdleUpcallTerminates posts the next frame from inside the
// idle upcall, the way a byte-rate loop does. An inline completion fires the
// upcall inside Post, so without a guard every frame would nest one call
// deeper; a Post from inside an inline completion's upcall goes to the
// owner instead, so the nesting stays at two.
func TestMeshPostFromIdleUpcallTerminates(t *testing.T) {
	nodes, cleanup, err := NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	const frames = 2000
	got := make(chan int, frames)
	nodes[1].SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		got <- f.Ctrl.Seq
		packet.ReleaseFrame(f)
	})
	var depth, maxDepth atomic.Int32
	var next atomic.Int32
	nodes[0].SetIdleHandler(func(ch int) {
		d := depth.Add(1)
		defer depth.Add(-1)
		if d > maxDepth.Load() {
			maxDepth.Store(d)
		}
		if seq := int(next.Add(1)); seq < frames {
			if err := nodes[0].Post(ch, pooledBulk(0, 1, seq, 64), 0); err != nil {
				t.Error(err)
			}
		}
	})
	if err := nodes[0].Post(0, pooledBulk(0, 1, 0, 64), 0); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < frames; want++ {
		select {
		case seq := <-got:
			if seq != want {
				t.Fatalf("got seq %d, want %d", seq, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("stalled after %d of %d frames", want, frames)
		}
	}
	if d := maxDepth.Load(); d > 2 {
		t.Fatalf("idle upcalls nested %d deep", d)
	}
}

// goid names the calling goroutine.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestMeshInlineOnlyForUnaggregatedFrames pins who writes a frame, by the
// goroutine its idle upcall runs on: a control frame posted to an idle,
// unpaced rail is written by the poster; a FrameData frame always goes to
// the owner — the asynchronous send unit that aggregation fills the backlog
// behind — and so does every frame on a paced rail, and every frame over a
// connection with no raw fd to write through. Each frame is delivered.
func TestMeshInlineOnlyForUnaggregatedFrames(t *testing.T) {
	paced := caps.TCP
	paced.EmulateWire = true
	ack := func() *packet.Frame {
		return &packet.Frame{Kind: packet.FrameAck, Src: 0, Dst: 1, Ctrl: packet.Ctrl{Token: 1}}
	}
	for _, tc := range []struct {
		name   string
		nw     Network
		caps   caps.Caps
		frame  func() *packet.Frame
		inline bool
	}{
		{"ack", TCP, caps.TCP, ack, true},
		{"data", TCP, caps.TCP, func() *packet.Frame { return simpleFrame(0, 1, 64) }, false},
		{"paced-ack", TCP, paced, ack, false},
		{"pipe-ack", newPipeNet(), caps.TCP, ack, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, cleanup, err := newMeshCluster(tc.nw, 2, tc.caps)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			upcall := make(chan string, 1)
			nodes[0].SetIdleHandler(func(int) { upcall <- goid() })
			got := make(chan packet.FrameKind, 1)
			nodes[1].SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
				got <- f.Kind
				packet.ReleaseFrame(f)
			})
			f := tc.frame()
			want := f.Kind // the frame is the rail's once posted
			if err := nodes[0].Post(0, f, 0); err != nil {
				t.Fatal(err)
			}
			if inline := <-upcall == goid(); inline != tc.inline {
				t.Fatalf("written by the posting goroutine: %v, want %v", inline, tc.inline)
			}
			select {
			case k := <-got:
				if k != want {
					t.Fatalf("delivered a %v frame, posted a %v", k, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("frame never delivered")
			}
		})
	}
}

// TestNewTryWriterNeedsRawConn: a connection with no raw fd gets no inline
// writer (and Post hands its frames to the owner) instead of a panic.
func TestNewTryWriterNeedsRawConn(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if w := newTryWriter(a); w != nil {
		t.Fatal("newTryWriter gave a pipe an inline writer")
	}
}
