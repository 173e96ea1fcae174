package drivers

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// Draining returns the number of retired rails whose owners are still
// writing out their queues (0 once every drain has completed).
func (m *Mesh) Draining() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.draining)
}

// waitFor polls cond, backing off from 100 µs to 5 ms between looks, until
// it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for pause := 100 * time.Microsecond; time.Now().Before(deadline); pause = min(2*pause, 5*time.Millisecond) {
		if cond() {
			return
		}
		time.Sleep(pause)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestMeshPeerFailure kills one node of a 3-node mesh and verifies the
// failure surfaces cleanly on the survivors: the dead peer is detected,
// Post to it reports ErrPeerDown, no channel stays wedged, traffic between
// the survivors still flows, and no goroutine outlives the final Close.
func TestMeshPeerFailure(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		before := runtime.NumGoroutine()

		nodes, cleanup, err := newMeshCluster(e.nw, 3, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		downCh := make(chan packet.NodeID, 4)
		nodes[0].SetPeerDownHandler(func(p packet.NodeID) { downCh <- p })
		recv := make(chan packet.NodeID, 16)
		idle := make(chan int, 16)
		nodes[0].SetIdleHandler(func(ch int) { idle <- ch })
		nodes[1].SetRecvHandler(func(src packet.NodeID, f *packet.Frame) { recv <- src })

		// Kill node 2 abruptly: its sockets close under the survivors.
		if err := nodes[2].Close(); err != nil {
			t.Fatal(err)
		}

		// Node 0 learns of the death from its reader (EOF on the inbound
		// connection from node 2), without having to post anything.
		e.settle(t, "peer-down detection", func() bool { return nodes[0].PeerDown(2) })
		select {
		case p := <-downCh:
			if p != 2 {
				t.Fatalf("down handler fired for peer %d", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("peer-down handler never fired")
		}

		// Post toward the dead peer is a clean error, not a panic or a wedge.
		if err := nodes[0].Post(0, simpleFrame(0, 2, 64), 0); !errors.Is(err, ErrPeerDown) {
			t.Fatalf("post to dead peer: %v, want ErrPeerDown", err)
		}
		if !nodes[0].ChannelIdle(0) {
			t.Fatal("failed post left the channel busy")
		}
		if nodes[0].PeerDown(1) || !nodes[0].PeerDown(2) {
			t.Fatalf("peer 1 down = %v, peer 2 down = %v; want only peer 2", nodes[0].PeerDown(1), nodes[0].PeerDown(2))
		}

		// The surviving edge keeps carrying traffic.
		if err := nodes[0].Post(0, simpleFrame(0, 1, 64), 0); err != nil {
			t.Fatal(err)
		}
		select {
		case src := <-recv:
			if src != 0 {
				t.Fatalf("survivor received from %d", src)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("survivor traffic lost after peer death")
		}
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatal("idle upcall lost after peer death")
		}

		nodes[0].Close()
		nodes[1].Close()
		e.settle(t, "goroutines to drain", func() bool {
			return runtime.NumGoroutine() <= before+2
		})
	})
}

// TestMeshPeerDisconnectMidFrame kills the destination while large frames
// are in flight toward it. The sender's channel must be released (idle
// upcall), the peer marked down, and no goroutine may leak.
func TestMeshPeerDisconnectMidFrame(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		before := runtime.NumGoroutine()

		nodes, cleanup, err := newMeshCluster(e.nw, 3, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		idle := make(chan int, 64)
		nodes[0].SetIdleHandler(func(ch int) { idle <- ch })
		// Stall the victim's reader in the recv upcall of a small first frame:
		// while it is blocked, the connection behind it fills up, so the big
		// write below wedges genuinely mid-frame until the close tears the
		// connection down under it.
		unblock := make(chan struct{})
		nodes[2].SetRecvHandler(func(packet.NodeID, *packet.Frame) { <-unblock })

		if err := nodes[0].Post(0, simpleFrame(0, 2, 64), 0); err != nil {
			t.Fatal(err)
		}
		select {
		case <-idle:
		case <-time.After(5 * time.Second):
			t.Fatal("small frame never finished writing")
		}
		if err := nodes[0].Post(1, simpleFrame(0, 2, 32<<20), 0); err != nil {
			t.Fatal(err)
		}
		// Let the writer block against the stalled reader, then kill the node.
		e.wedge()
		close(unblock)
		if err := nodes[2].Close(); err != nil {
			t.Fatal(err)
		}

		// The interrupted channel must come back (write error path fires the
		// idle upcall), and the peer must end up down.
		select {
		case <-idle:
		case <-time.After(10 * time.Second):
			t.Fatal("channel wedged after mid-frame disconnect")
		}
		e.settle(t, "peer-down after mid-frame disconnect", func() bool {
			return nodes[0].PeerDown(2)
		})
		e.settle(t, "channel release", func() bool { return nodes[0].ChannelIdle(0) })

		nodes[0].Close()
		nodes[1].Close()
		e.settle(t, "goroutines to drain", func() bool {
			return runtime.NumGoroutine() <= before+2
		})
	})
}

// TestMeshRedial replaces a healthy connection by re-dialing the same peer
// — the documented recovery from ErrPeerDown. The old sender goroutine must
// retire (Close must not hang on it, nothing may leak), its late errors
// must not mark the fresh connection down, and traffic must flow on the
// replacement.
func TestMeshRedial(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		before := runtime.NumGoroutine()

		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		recv := make(chan struct{}, 8)
		nodes[1].SetRecvHandler(func(packet.NodeID, *packet.Frame) { recv <- struct{}{} })

		if err := nodes[0].Dial(1, nodes[1].Addr()); err != nil {
			t.Fatal(err)
		}
		if nodes[0].PeerDown(1) {
			t.Fatal("re-dial marked the fresh connection down")
		}
		if err := nodes[0].Post(0, simpleFrame(0, 1, 64), 0); err != nil {
			t.Fatalf("post after re-dial: %v", err)
		}
		select {
		case <-recv:
		case <-time.After(5 * time.Second):
			t.Fatal("frame lost after re-dial")
		}

		// Close must complete: the retired sender goroutine has exited.
		closed := make(chan struct{})
		go func() {
			nodes[0].Close()
			nodes[1].Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close hung after re-dial (retired sender leaked)")
		}
		e.settle(t, "goroutines to drain", func() bool {
			return runtime.NumGoroutine() <= before+2
		})
	})
}

// TestMeshRedialWithPending covers the post-with-pending-re-dial window
// that TestMeshRedial (which only posts after the re-dial) misses: frames
// queued toward a healthy peer before a re-Dial must either arrive on the
// drained connection or surface through the peer-down handler — they may
// never be marked sent and silently dropped. Against the pre-rework driver
// this test fails: retiring the old connection closed its socket mid-write
// and released the queued frames as if sent, so `got` stalled below
// `posted` with no down event.
func TestMeshRedialWithPending(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		before := runtime.NumGoroutine()

		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		var mu sync.Mutex
		got := 0
		downs := 0
		// Stall the receiver in the first frame's upcall: the connection
		// behind it fills, so the big frame below wedges genuinely mid-write and
		// the subsequent post stays queued on the old connection.
		unblock := make(chan struct{})
		first := true
		nodes[1].SetRecvHandler(func(packet.NodeID, *packet.Frame) {
			if first {
				first = false
				<-unblock
			}
			mu.Lock()
			got++
			mu.Unlock()
		})
		nodes[0].SetPeerDownHandler(func(packet.NodeID) {
			mu.Lock()
			downs++
			mu.Unlock()
		})

		posted := 0
		if err := nodes[0].Post(0, simpleFrame(0, 1, 64), 0); err != nil {
			t.Fatal(err)
		}
		posted++
		e.settle(t, "channel 0 release", func() bool { return nodes[0].ChannelIdle(0) })
		// Channel 0: a frame large enough to wedge mid-write against the
		// stalled reader. Channel 1: a frame that stays fully queued behind it.
		if err := nodes[0].Post(0, simpleFrame(0, 1, 8<<20), 0); err != nil {
			t.Fatal(err)
		}
		posted++
		if err := nodes[0].Post(1, simpleFrame(0, 1, 64<<10), 0); err != nil {
			t.Fatal(err)
		}
		posted++
		e.wedge()

		// Re-dial while both frames are pending on the old connection.
		if err := nodes[0].Dial(1, nodes[1].Addr()); err != nil {
			t.Fatal(err)
		}
		if nodes[0].PeerDown(1) {
			t.Fatal("re-dial marked the fresh connection down")
		}
		// Both channels stay busy: their frames are pending on the draining
		// rail, and a channel is only released when its frame has been written
		// out (or the peer reported down) — never silently.
		if nodes[0].ChannelIdle(0) || nodes[0].ChannelIdle(1) {
			t.Fatal("pending frame's channel released before the frame was drained")
		}
		close(unblock)

		// Every pending frame must arrive (graceful drain) — or, had the drain
		// failed, the peer-down handler must have fired. Silent loss is the one
		// outcome the lifecycle rework forbids.
		e.settle(t, "pending frames to arrive or error", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got == posted || downs > 0
		})
		mu.Lock()
		if downs == 0 && got != posted {
			mu.Unlock()
			t.Fatalf("delivered %d of %d with no peer-down event", got, posted)
		}
		mu.Unlock()

		// The drained rail's owner exits once its queue is empty.
		e.settle(t, "drain completion", func() bool { return nodes[0].Draining() == 0 })

		// A post after the re-dial travels the replacement.
		e.settle(t, "channel 0 idle", func() bool { return nodes[0].ChannelIdle(0) })
		if err := nodes[0].Post(0, simpleFrame(0, 1, 64), 0); err != nil {
			t.Fatalf("post after re-dial: %v", err)
		}
		posted++
		e.settle(t, "post-re-dial delivery", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got == posted || downs > 0
		})

		nodes[0].Close()
		nodes[1].Close()
		e.settle(t, "goroutines to drain", func() bool {
			return runtime.NumGoroutine() <= before+2
		})
	})
}

// TestMeshStaleWriteErrorKeepsPeerUp: a write error on a rail a re-dial has
// already replaced takes the replacement down only when it loses frames
// nobody else surfaces — the old rail was live and no frame-loss handler
// takes its frames back. A rail BreakPeer took down had its loss surfaced
// then, and a loss handler fails the frames over; in both cases the peer
// stays up and the new connection carries traffic.
func TestMeshStaleWriteErrorKeepsPeerUp(t *testing.T) {
	for _, tc := range []struct {
		name            string
		broken, handler bool
		wantDown        bool
	}{
		{"broken-then-redialed", true, false, false},
		{"graceful-with-loss-handler", false, true, false},
		{"graceful-without-loss-handler", false, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachNet(t, func(t *testing.T, e meshEnv) {
				nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
				if err != nil {
					t.Fatal(err)
				}
				defer cleanup()
				recv := make(chan struct{}, 1)
				nodes[1].SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
					packet.ReleaseFrame(f)
					recv <- struct{}{}
				})
				if tc.handler {
					nodes[0].SetFrameLossHandler(func(packet.NodeID, []*packet.Frame) {})
				}
				nodes[0].mu.Lock()
				old := nodes[0].peers[1]
				nodes[0].mu.Unlock()
				if tc.broken {
					inbound := func() bool {
						nodes[0].mu.Lock()
						defer nodes[0].mu.Unlock()
						_, ok := nodes[0].inbound[1]
						return ok
					}
					e.settle(t, "node 1's hello", inbound)
					nodes[0].BreakPeer(1)
					// Node 1 sees the EOF and drops its connection back; wait until
					// node 0 has read that EOF too, so no late inbound failure
					// lands on the replacement below.
					e.settle(t, "the reverse connection's EOF", func() bool { return !inbound() })
				}
				if err := nodes[0].Dial(1, nodes[1].Addr()); err != nil {
					t.Fatal(err)
				}
				e.settle(t, "the old rail to retire", func() bool { return nodes[0].Draining() == 0 })

				nodes[0].railWriteFailed(1, old)
				if got := nodes[0].PeerDown(1); got != tc.wantDown {
					t.Fatalf("PeerDown after the old rail's write error = %v, want %v", got, tc.wantDown)
				}
				err = nodes[0].Post(0, simpleFrame(0, 1, 64), 0)
				if tc.wantDown {
					if !errors.Is(err, ErrPeerDown) {
						t.Fatalf("post = %v, want ErrPeerDown", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("post on the replacement: %v", err)
				}
				select {
				case <-recv:
				case <-time.After(5 * time.Second):
					t.Fatal("the replacement carried no frame")
				}
			})
		})
	}
}

// TestMeshStaleInboundEOFKeepsPeerUp: the peer's connection toward this
// node ends after this node's rail went down and was re-dialed, before the
// peer's new hello is read — still the newest inbound connection, but of an
// older epoch than the replacement rail, which must stay up and carry
// traffic. With no re-dial in between, the same failure is genuine and
// takes the peer down.
func TestMeshStaleInboundEOFKeepsPeerUp(t *testing.T) {
	for _, tc := range []struct {
		name     string
		redial   bool
		wantDown bool
	}{
		{"broken-then-redialed", true, false},
		{"no-redial", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachNet(t, func(t *testing.T, e meshEnv) {
				a, err := NewMesh(0, caps.TCP, e.nw, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				b, err := NewMesh(1, caps.TCP, e.nw, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer b.Close()
				recv := make(chan struct{}, 1)
				b.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
					packet.ReleaseFrame(f)
					recv <- struct{}{}
				})
				if err := a.Dial(1, b.Addr()); err != nil {
					t.Fatal(err)
				}
				// Node 1's connection toward node 0, held open by the test so
				// its end is read exactly when the test says: a hello and a
				// frame behind it, whose delivery shows the hello registered.
				in, err := e.nw.Dial(a.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer in.Close()
				got := make(chan struct{}, 1)
				a.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
					packet.ReleaseFrame(f)
					got <- struct{}{}
				})
				h := hello(1, 1)
				ack := &packet.Frame{Kind: packet.FrameAck, Src: 1, Dst: 0, Ctrl: packet.Ctrl{Token: 7}}
				if _, err := in.Write(append(h[:], prefixed(ack.Encode(nil))...)); err != nil {
					t.Fatal(err)
				}
				select {
				case <-got:
				case <-time.After(5 * time.Second):
					t.Fatal("frame on node 1's connection never arrived")
				}
				var old net.Conn
				a.mu.Lock()
				for c := range a.accepted {
					old = c
				}
				a.mu.Unlock()
				if tc.redial {
					a.BreakPeer(1)
					if err := a.Dial(1, b.Addr()); err != nil {
						t.Fatal(err)
					}
				}

				a.inboundFailed(1, old)
				if got := a.PeerDown(1); got != tc.wantDown {
					t.Fatalf("PeerDown after the inbound connection's EOF = %v, want %v", got, tc.wantDown)
				}
				err = a.Post(0, simpleFrame(0, 1, 64), 0)
				if tc.wantDown {
					if !errors.Is(err, ErrPeerDown) {
						t.Fatalf("post = %v, want ErrPeerDown", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("post on the replacement: %v", err)
				}
				select {
				case <-recv:
				case <-time.After(5 * time.Second):
					t.Fatal("the replacement carried no frame")
				}
			})
		})
	}
}

// TestMeshListenAddr exercises explicit listen addresses (the multi-machine
// path) and dial errors.
func TestMeshListenAddr(t *testing.T) {
	m, err := NewMesh(0, caps.TCP, TCP, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Addr() == "" {
		t.Fatal("no listen address")
	}
	if err := m.Dial(1, "127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if _, err := NewMesh(0, caps.Caps{}, TCP, "127.0.0.1:0"); err == nil {
		t.Fatal("invalid caps accepted")
	}
	bad := caps.TCP
	bad.Bandwidth = 0
	if _, err := NewMesh(0, bad, TCP, "127.0.0.1:0"); err == nil {
		t.Fatal("zero-bandwidth caps accepted")
	}
	if _, err := NewMesh(0, caps.TCP, TCP, "256.0.0.1:bad"); err == nil {
		t.Fatal("invalid listen address accepted")
	}
}

// TestMeshDialAfterClose verifies Dial on a closed mesh fails cleanly.
func TestMeshDialAfterClose(t *testing.T) {
	a, err := NewMesh(0, caps.TCP, TCP, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMesh(1, caps.TCP, TCP, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Close()
	if err := a.Dial(1, b.Addr()); err == nil {
		t.Fatal("dial on closed mesh succeeded")
	}
}

// TestMeshSupersededInboundKeepsPeerUp: two inbound connections from one
// peer, whose hellos are read newest first. The older one then dies without
// a retire marker. It is not the peer's newest connection, so the peer must
// stay up — registering whichever hello was read last took a live peer down.
// The newest connection dying is a genuine failure and still does.
func TestMeshSupersededInboundKeepsPeerUp(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		got := make(chan struct{}, 1)
		nodes[0].SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
			packet.ReleaseFrame(f)
			got <- struct{}{}
		})
		dial := func() net.Conn {
			c, err := e.nw.Dial(nodes[0].Addr())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		older, newer := dial(), dial()
		defer older.Close()
		defer newer.Close()
		gen := nodes[1].dialGen.Load()

		// The newer hello first, a frame behind it: once the frame is delivered,
		// the reader has registered the hello.
		h := hello(1, gen+2)
		ack := &packet.Frame{Kind: packet.FrameAck, Src: 1, Dst: 0, Ctrl: packet.Ctrl{Token: 7}}
		if _, err := newer.Write(append(h[:], prefixed(ack.Encode(nil))...)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatal("frame on the newer connection never arrived")
		}
		h = hello(1, gen+1)
		if _, err := older.Write(h[:]); err != nil {
			t.Fatal(err)
		}
		older.Close()
		accepted := func() int {
			nodes[0].mu.Lock()
			defer nodes[0].mu.Unlock()
			return len(nodes[0].accepted)
		}
		e.settle(t, "the older connection's reader to exit", func() bool { return accepted() == 2 })
		if nodes[0].PeerDown(1) {
			t.Fatal("a superseded connection's EOF took the peer down")
		}
		newer.Close()
		e.settle(t, "the newest connection's EOF to take the peer down", func() bool { return nodes[0].PeerDown(1) })
	})
}

// TestMeshCorruptStreamClosesReader: a peer that sends an absurd length
// prefix must not make the reader allocate it; the reader drops the
// connection (the raw side reads EOF), the node keeps serving its other
// peers, and Close still returns.
func TestMeshCorruptStreamClosesReader(t *testing.T) {
	nodes, cleanup, err := NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	got := make(chan struct{}, 1)
	nodes[0].SetRecvHandler(func(packet.NodeID, *packet.Frame) { got <- struct{}{} })

	conn, err := net.DialTimeout("tcp", nodes[0].Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Handshake as an unknown node 9, then a 4 GiB length prefix.
	h := hello(9, 1)
	if _, err := conn.Write(append(h[:], 0xFF, 0xFF, 0xFF, 0xFF)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("reader kept the poisoned connection open: read %d bytes, err %v", n, err)
	}
	// The poisoned stream took nothing else down.
	if err := nodes[1].Post(0, simpleFrame(1, 0, 32), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("node stopped receiving after a corrupt inbound stream")
	}
}
