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

// lingeringRuntime is the wall clock with a Schedule that dawdles: Submit
// arms the rendezvous retry timer right after queueing the RTS, so a slow
// Schedule holds the submitter inside exactly the window in which another
// goroutine's pump may post the RTS and its rail recycle it.
type lingeringRuntime struct{ *simnet.RealRuntime }

func (r lingeringRuntime) Schedule(d simnet.Duration, label string, fn func()) simnet.CancelFunc {
	time.Sleep(50 * time.Microsecond)
	return r.RealRuntime.Schedule(d, label, fn)
}

// TestRdvSubmitRace pins the frame-ownership rule on the rendezvous submit
// path: once Submit has queued the RTS and dropped the engine lock, another
// goroutine's pump may post it and the rail's sender recycle it, so Submit
// may not read the frame again (it used to, for the retry timer's token).
// Over real sockets, with retry armed, concurrent submitters and a Flush
// loop (a pump on a goroutine that submits nothing) make exactly that
// interleaving; -race reports the stale read. Exactly-once in-order
// delivery is checked on the way.
func TestRdvSubmitRace(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rt := lingeringRuntime{simnet.NewRealRuntime()}

	const (
		flows   = 6
		perFlow = 60
		size    = 4 << 10 // over the 1 KiB override below: every packet is a rendezvous
	)
	var (
		mu   sync.Mutex
		next = map[packet.FlowID]int{}
		got  int
		done = make(chan struct{})
	)
	mk := func(n packet.NodeID, deliver proto.DeliverFunc) *Engine {
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(n, Options{
			Bundle: b, Runtime: rt, Rails: []drivers.Driver{nodes[n]}, Deliver: deliver,
			Knobs: strategy.Knobs{RdvThreshold: 1 << 10},
			// Long enough that no retry fires on a healthy loopback; armed so
			// Submit takes the armRdvRetryLocked path under test.
			RdvRetry: simnet.FromWall(5 * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	receiver := mk(1, func(d proto.Deliverable) {
		mu.Lock()
		defer mu.Unlock()
		if d.Pkt.Seq != next[d.Pkt.Flow] || d.Pkt.Size() != size {
			t.Errorf("flow %d delivered seq %d (%d B), want seq %d (%d B)",
				d.Pkt.Flow, d.Pkt.Seq, d.Pkt.Size(), next[d.Pkt.Flow], size)
		}
		next[d.Pkt.Flow]++
		if got++; got == flows*perFlow {
			close(done)
		}
	})
	sender := mk(0, func(proto.Deliverable) {})
	// Engines close before the drivers do (defers run last-in first-out).
	defer receiver.Close()
	defer sender.Close()

	stop := make(chan struct{})
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for {
			select {
			case <-stop:
				return
			default:
				sender.Flush()
			}
		}
	}()
	defer func() { close(stop); <-pumped }()

	var wg sync.WaitGroup
	for f := 1; f <= flows; f++ {
		f := f
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < perFlow; s++ {
				p := &packet.Packet{
					Flow: packet.FlowID(f), Msg: 1, Seq: s, Src: 0, Dst: 1,
					Class: packet.ClassBulk, Payload: make([]byte, size),
				}
				if err := sender.Submit(p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timed out with %d/%d delivered", got, flows*perFlow)
	}
	if n := sender.Stats().CounterValue("core.rdv_started"); n != flows*perFlow {
		t.Fatalf("rdv_started = %d, want %d", n, flows*perFlow)
	}
}
