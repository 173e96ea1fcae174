package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
)

func TestClusterValidation(t *testing.T) {
	if _, err := New(Options{Nodes: 1}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
	if _, err := New(Options{Nodes: 2, Bundle: "no-such-bundle"}); err == nil {
		t.Fatal("unknown bundle accepted")
	}
}

// TestClusterRefusesOversizePayload: a packet, put or get one byte over
// what a frame can carry is refused with core.ErrTooLarge at the call —
// rather than crashing the node when the rail refuses the frame — and the
// node goes on: the refused packet consumed no seq, so the flow's seq 0
// still delivers, and the cluster closes.
func TestClusterRefusesOversizePayload(t *testing.T) {
	delivered := make(chan packet.FlowID, 1)
	c, err := New(Options{Nodes: 2, Raw: true, OnDeliver: func(_ packet.NodeID, d proto.Deliverable) {
		delivered <- d.Pkt.Flow
	}})
	if err != nil {
		t.Fatal(err)
	}
	eng := c.Engine(0)
	msg := func(size int) *packet.Packet {
		return &packet.Packet{Flow: 1, Msg: 1, Seq: 0, Last: true, Src: 0, Dst: 1,
			Class: packet.ClassSmall, Payload: make([]byte, size)}
	}
	over := msg(packet.MaxPayload + 1)
	if err := eng.Submit(over); !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("oversize Submit: %v, want ErrTooLarge", err)
	}
	if err := eng.Put(1, 1, 0, over.Payload, nil); !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("oversize Put: %v, want ErrTooLarge", err)
	}
	if err := eng.Get(1, 1, 0, over.Size(), func([]byte) {}); !errors.Is(err, core.ErrTooLarge) {
		t.Fatalf("oversize Get: %v, want ErrTooLarge", err)
	}
	if err := eng.Submit(msg(64)); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("the message after the refusals was not delivered")
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked after the refusals")
	}
}

// TestClusterAllToAll boots 3 engines over real sockets and runs a full
// all-to-all structured-message exchange through the mad packing API.
func TestClusterAllToAll(t *testing.T) {
	const n = 3
	c, err := New(Options{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got atomic.Int64
	done := make(chan struct{}, 1)
	var mu sync.Mutex
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		i := i
		c.Session(packet.NodeID(i)).Channel("a2a").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
			mu.Lock()
			seen[fmt.Sprintf("%d<-%d:%s", i, src, m.Fragments[0])] = true
			mu.Unlock()
			if got.Add(1) == n*(n-1) {
				done <- struct{}{}
			}
		})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			conn := c.Session(packet.NodeID(i)).Channel("a2a").Connect(packet.NodeID(j))
			msg := conn.BeginPacking()
			msg.Pack([]byte(fmt.Sprintf("hdr-%d-%d", i, j)), mad.SendCheaper, mad.RecvExpress)
			msg.Pack(make([]byte, 2048), mad.SendCheaper, mad.RecvCheaper)
			msg.EndPacking()
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("all-to-all incomplete: %d of %d messages", got.Load(), n*(n-1))
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			key := fmt.Sprintf("%d<-%d:hdr-%d-%d", j, i, i, j)
			if !seen[key] {
				t.Fatalf("missing message %s (saw %v)", key, seen)
			}
		}
	}
	// Every node's engine really carried traffic over its own metric set.
	for i, node := range c.Nodes {
		if node.Stats.CounterValue("core.submitted") == 0 {
			t.Fatalf("node %d submitted nothing", i)
		}
	}
}

// TestClusterRendezvous pushes a payload above the TCP profile's rendezvous
// threshold through the mesh, exercising RTS/CTS/RData over real sockets on
// a >2-node topology.
func TestClusterRendezvous(t *testing.T) {
	c, err := New(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recv := make(chan *mad.Incoming, 1)
	for i := 0; i < 3; i++ {
		i := i
		c.Session(packet.NodeID(i)).Channel("bulk").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
			if i == 2 {
				recv <- m
			}
		})
	}
	payload := make([]byte, 256<<10) // above the 64 KiB TCP threshold
	for i := range payload {
		payload[i] = byte(i)
	}
	conn := c.Session(0).Channel("bulk").Connect(2)
	msg := conn.BeginPacking()
	msg.Pack(payload, mad.SendCheaper, mad.RecvCheaper)
	msg.EndPacking()

	select {
	case m := <-recv:
		if len(m.Fragments) != 1 || len(m.Fragments[0]) != len(payload) {
			t.Fatalf("bulk corrupted: %d fragments", len(m.Fragments))
		}
		for i := 0; i < len(payload); i += 4096 {
			if m.Fragments[0][i] != byte(i) {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("rendezvous payload never arrived over mesh")
	}
	if c.Nodes[0].Stats.CounterValue("core.rdv_started") != 1 {
		t.Fatal("rendezvous path not used")
	}
}

// TestClusterSurvivesPeerDeath kills one node of a 3-node cluster and
// verifies the surviving pair still exchanges messages.
func TestClusterSurvivesPeerDeath(t *testing.T) {
	c, err := New(Options{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	recv := make(chan struct{}, 1)
	for i := 0; i < 3; i++ {
		i := i
		c.Session(packet.NodeID(i)).Channel("x").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
			if i == 1 {
				recv <- struct{}{}
			}
		})
	}

	// Kill node 2: engine detached, sockets torn down under the others.
	c.Nodes[2].Engine.Close()
	c.Nodes[2].Rails[0].Close()

	// 0 -> 1 must still work.
	conn := c.Session(0).Channel("x").Connect(1)
	msg := conn.BeginPacking()
	msg.Pack([]byte("still alive"), mad.SendCheaper, mad.RecvCheaper)
	msg.EndPacking()
	select {
	case <-recv:
	case <-time.After(20 * time.Second):
		t.Fatal("survivors stopped exchanging after peer death")
	}
}
