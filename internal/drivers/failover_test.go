package drivers

import (
	"errors"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// Tests for the chaos-facing failure machinery: frame reclaim on connection
// failure and deliberate rail breaking (the flap fault). Failing reclaimed
// frames over onto a surviving rail is the engine's job (internal/core).

// TestMeshFrameLossReclaim pins the frame-ownership contract the failover
// layer builds on: when a connection dies with frames aboard — one wedged
// mid-write, one fully queued behind it — the frames are handed back
// through the loss handler instead of vanishing, and every channel they
// occupied is released.
func TestMeshFrameLossReclaim(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		var mu sync.Mutex
		var reclaimed []*packet.Frame
		nodes[0].SetFrameLossHandler(func(peer packet.NodeID, frames []*packet.Frame) {
			if peer != 1 {
				t.Errorf("loss reported for peer %d", peer)
			}
			mu.Lock()
			reclaimed = append(reclaimed, frames...)
			mu.Unlock()
		})
		idle := make(chan int, 16)
		nodes[0].SetIdleHandler(func(ch int) { idle <- ch })
		// Stall the receiver in the first frame's upcall so the big frame below
		// wedges mid-write against a full connection.
		unblock := make(chan struct{})
		first := true
		nodes[1].SetRecvHandler(func(packet.NodeID, *packet.Frame) {
			if first {
				first = false
				<-unblock
			}
		})

		if err := nodes[0].Post(0, simpleFrame(0, 1, 64), 0); err != nil {
			t.Fatal(err)
		}
		e.settle(t, "small frame written", func() bool { return nodes[0].ChannelIdle(0) })
		big := simpleFrame(0, 1, 8<<20)
		if err := nodes[0].Post(0, big, 0); err != nil {
			t.Fatal(err)
		}
		queued := simpleFrame(0, 1, 64<<10)
		if err := nodes[0].Post(1, queued, 0); err != nil {
			t.Fatal(err)
		}
		e.wedge()

		// Sever the connection under the wedged write.
		if !nodes[0].BreakPeer(1) {
			t.Fatal("BreakPeer on a live peer reported no break")
		}
		close(unblock)

		e.settle(t, "frames reclaimed", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(reclaimed) >= 2
		})
		mu.Lock()
		found := map[*packet.Frame]bool{}
		for _, f := range reclaimed {
			found[f] = true
		}
		mu.Unlock()
		if !found[big] || !found[queued] {
			t.Fatalf("reclaimed set missing posted frames (big=%v queued=%v)", found[big], found[queued])
		}
		e.settle(t, "channels released", func() bool {
			return nodes[0].ChannelIdle(0) && nodes[0].ChannelIdle(1)
		})
	})
}

// TestMeshBreakPeerAndHeal: BreakPeer behaves exactly like a network-cut —
// down event, ErrPeerDown on Post, detection on the remote side — and the
// ordinary re-Dial heals it.
func TestMeshBreakPeerAndHeal(t *testing.T) {
	eachNet(t, func(t *testing.T, e meshEnv) {
		nodes, cleanup, err := newMeshCluster(e.nw, 2, caps.TCP)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()

		down := make(chan packet.NodeID, 4)
		nodes[0].SetPeerDownHandler(func(p packet.NodeID) { down <- p })
		recv := make(chan struct{}, 8)
		nodes[1].SetRecvHandler(func(packet.NodeID, *packet.Frame) { recv <- struct{}{} })

		if !nodes[0].BreakPeer(1) {
			t.Fatal("break reported no live connection")
		}
		if nodes[0].BreakPeer(1) {
			t.Fatal("second break on the same dead peer reported a break")
		}
		select {
		case p := <-down:
			if p != 1 {
				t.Fatalf("down fired for peer %d", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("down handler never fired after BreakPeer")
		}
		if !nodes[0].PeerDown(1) {
			t.Fatal("peer not down after BreakPeer")
		}
		if err := nodes[0].Post(0, simpleFrame(0, 1, 8), 0); !errors.Is(err, ErrPeerDown) {
			t.Fatalf("post after break: %v, want ErrPeerDown", err)
		}
		// The remote side sees the reset on its inbound connection.
		e.settle(t, "remote down detection", func() bool { return nodes[1].PeerDown(0) })

		// Heal both directions and verify traffic flows.
		if err := nodes[0].Dial(1, nodes[1].Addr()); err != nil {
			t.Fatal(err)
		}
		if err := nodes[1].Dial(0, nodes[0].Addr()); err != nil {
			t.Fatal(err)
		}
		if nodes[0].PeerDown(1) || nodes[1].PeerDown(0) {
			t.Fatal("peer still down after heal")
		}
		if err := nodes[0].Post(0, simpleFrame(0, 1, 8), 0); err != nil {
			t.Fatalf("post after heal: %v", err)
		}
		select {
		case <-recv:
		case <-time.After(5 * time.Second):
			t.Fatal("frame lost after heal")
		}
	})
}
