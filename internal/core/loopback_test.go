package core

import (
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestLoopbackIntegration runs the very same optimizer over real TCP
// sockets in wall-clock time: idle upcalls arrive from sender goroutines,
// deliveries from reader goroutines, and Submit races them all. This
// validates the engine's concurrency contract, which the single-threaded
// simulator can never exercise.
func TestLoopbackIntegration(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	rt := simnet.NewRealRuntime()
	var mu sync.Mutex
	var got []proto.Deliverable
	done := make(chan struct{}, 1)
	const total = 120

	mkEngine := func(n packet.NodeID, deliver proto.DeliverFunc) *Engine {
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(n, Options{
			Bundle:  b,
			Runtime: rt,
			Rails:   []drivers.Driver{nodes[n]},
			Deliver: deliver,
			Knobs:   strategy.Knobs{NagleDelay: simnet.FromWall(200 * time.Microsecond)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	_ = mkEngine(1, func(d proto.Deliverable) {
		mu.Lock()
		got = append(got, d)
		if len(got) == total {
			select {
			case done <- struct{}{}:
			default:
			}
		}
		mu.Unlock()
	})
	sender := mkEngine(0, func(proto.Deliverable) {})

	// Several goroutines submit concurrently, one flow each, so ordering
	// within each flow is still well-defined.
	const flows = 4
	var wg sync.WaitGroup
	for f := 1; f <= flows; f++ {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < total/flows; s++ {
				p := &packet.Packet{
					Flow: packet.FlowID(f), Msg: 1, Seq: s, Src: 0, Dst: 1,
					Class: packet.ClassSmall, Payload: make([]byte, 64),
				}
				if err := sender.Submit(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	sender.Flush()

	select {
	case <-done:
	case <-time.After(20 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out with %d/%d delivered", n, total)
	}

	mu.Lock()
	defer mu.Unlock()
	next := map[packet.FlowID]int{}
	for _, d := range got {
		if d.Pkt.Seq != next[d.Pkt.Flow] {
			t.Fatalf("flow %d delivered seq %d, want %d", d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
		}
		next[d.Pkt.Flow]++
	}
	for f := 1; f <= flows; f++ {
		if next[packet.FlowID(f)] != total/flows {
			t.Fatalf("flow %d incomplete: %d", f, next[packet.FlowID(f)])
		}
	}
}

// TestLoopbackRendezvous exercises the RTS/CTS/RData exchange over real
// sockets.
func TestLoopbackRendezvous(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rt := simnet.NewRealRuntime()

	recv := make(chan *packet.Packet, 1)
	mk := func(n packet.NodeID, deliver proto.DeliverFunc) *Engine {
		b, _ := strategy.New("aggregate")
		eng, err := New(n, Options{
			Bundle: b, Runtime: rt,
			Rails:   []drivers.Driver{nodes[n]},
			Deliver: deliver,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	mk(1, func(d proto.Deliverable) { p := d.Pkt; recv <- &p })
	sender := mk(0, func(proto.Deliverable) {})

	payload := make([]byte, 256<<10) // above TCP profile threshold (64 KiB)
	for i := range payload {
		payload[i] = byte(i)
	}
	p := &packet.Packet{
		Flow: 1, Msg: 1, Seq: 0, Last: true, Src: 0, Dst: 1,
		Class: packet.ClassBulk, Payload: payload,
	}
	if err := sender.Submit(p); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-recv:
		if got.Size() != len(payload) {
			t.Fatalf("received %d bytes", got.Size())
		}
		for i := 0; i < len(payload); i += 4096 {
			if got.Payload[i] != byte(i) {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("rendezvous payload never arrived")
	}
	if sender.Stats().CounterValue("core.rdv_started") != 1 {
		t.Fatal("rendezvous path not used")
	}
}
