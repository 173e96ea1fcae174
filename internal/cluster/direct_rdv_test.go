package cluster

import (
	"sync"
	"testing"
	"time"

	"newmad/internal/packet"
	"newmad/internal/proto"
)

// TestDirectRDataExactlyOnceAcrossSever severs the rail under rendezvous-
// class traffic on a chaos-wrapped socket cluster. A socket rail lands every
// frame in a buffer of its own, so each transfer is one direct RData — no
// RTS, no CTS, nothing retried. The receiver stalls on its first delivery,
// so the sender's socket fills and frames sit aboard the rail, one of them
// mid-write, when it is severed: the dying rail hands them back, and the
// engine fails them over once the rail is mended. A frame the dying rail
// may have written whole before its reclaim would arrive twice; the
// receiver's completed log drops the copy, and every transfer is delivered
// exactly once.
func TestDirectRDataExactlyOnceAcrossSever(t *testing.T) {
	const msgs, size = 64, 256 << 10
	var mu sync.Mutex
	got := map[int]int{}
	first, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c, err := New(Options{
		Nodes: 2, Raw: true,
		Chaos: &ChaosPlan{Seed: testSeed(t, 11)},
		OnDeliver: func(node packet.NodeID, d proto.Deliverable) {
			if node != 1 || d.Pkt.Size() != size {
				return
			}
			mu.Lock()
			got[d.Pkt.Seq]++
			mu.Unlock()
			once.Do(func() {
				close(first)
				<-unblock
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := make([]byte, size)
	for seq := 0; seq < msgs; seq++ {
		if err := c.Engine(0).Submit(&packet.Packet{
			Flow: 1, Msg: packet.MsgID(seq), Seq: seq, Last: true,
			Src: 0, Dst: 1, Class: packet.ClassBulk, Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
	}
	<-first
	time.Sleep(50 * time.Millisecond) // the stalled reader lets the socket fill
	c.Sever(0, 1, 0)
	// Mend at once, before the stalled reader reaches the old connection's
	// end: that end belongs to the epoch the sever closed, so it leaves the
	// replacement up.
	if err := c.Mend(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	close(unblock)

	delivered := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	for deadline := time.Now().Add(20 * time.Second); delivered() < msgs; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d transfers delivered", delivered(), msgs)
		}
		c.Flush(0)
	}
	mu.Lock()
	for seq, n := range got {
		if n != 1 {
			t.Errorf("transfer %d delivered %d times", seq, n)
		}
	}
	mu.Unlock()
	tx, rx := c.Engine(0).Metrics(), c.Engine(1).Metrics()
	if tx.RdvStarted != msgs || rx.ReactiveFrames != 0 {
		t.Fatalf("%d rendezvous started, %d frames answered: the transfers were not direct", tx.RdvStarted, rx.ReactiveFrames)
	}
	if tx.FramesReclaimed == 0 {
		t.Fatal("the sever reclaimed nothing: no frame was aboard the rail")
	}
}
