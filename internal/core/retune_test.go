package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// TestRetuneUnderLiveTraffic hammers both runtime setters — SetKnobs and
// SetBundle, what the adaptive controller drives — from a tuner goroutine
// while real-socket traffic flows through the engine, under the race
// detector. The sweeps in internal/exp only ever retune between runs; a
// controller retunes *during* one, with idle upcalls arriving from sender
// goroutines and deliveries from reader goroutines, so every knob swap
// (and the Nagle-release pump it may run) must be safe against the hot
// path. The test asserts no packet is lost or reordered regardless of how
// the tuning churns mid-flight.
func TestRetuneUnderLiveTraffic(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	rt := simnet.NewRealRuntime()
	const flows = 4
	const total = 400

	var mu sync.Mutex
	next := map[packet.FlowID]int{}
	delivered := 0
	done := make(chan struct{})
	recv := func(d proto.Deliverable) {
		mu.Lock()
		defer mu.Unlock()
		if d.Pkt.Seq != next[d.Pkt.Flow] {
			t.Errorf("flow %d delivered seq %d, want %d", d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
		}
		next[d.Pkt.Flow]++
		delivered++
		if delivered == total {
			close(done)
		}
	}

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
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	_ = mkEngine(1, recv)
	sender := mkEngine(0, func(proto.Deliverable) {})

	// The senders start only after the tuner's first retune: 400 packets
	// can drain before a loaded scheduler ever runs the tuner goroutine.
	var retunes atomic.Int64
	firstRetune := make(chan struct{})
	sender.SetRetuneObserver(func(RetuneEvent) {
		if retunes.Add(1) == 1 {
			close(firstRetune)
		}
	})

	// The tuner: churn every knob and the bundle as fast as possible until
	// the traffic completes, reading the metrics surface between writes
	// exactly as a controller tick does.
	stop := make(chan struct{})
	var tunerWg sync.WaitGroup
	tunerWg.Add(1)
	go func() {
		defer tunerWg.Done()
		bundles := []string{"fifo", "aggregate", "search", "adaptive"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch j := i / 3; i % 3 {
			case 0:
				if err := sender.SetKnobs(strategy.Knobs{
					Lookahead:       j % 16,
					NagleDelay:      simnet.Duration(j%3) * simnet.FromWall(50*time.Microsecond),
					NagleFlushCount: j % 8,
					SearchBudget:    j % 32,
					RdvThreshold:    (j % 4) << 12,
				}); err != nil {
					t.Error(err)
					return
				}
			case 1:
				b, err := strategy.New(bundles[i%len(bundles)])
				if err != nil {
					t.Error(err)
					return
				}
				if err := sender.SetBundle(b); err != nil {
					t.Error(err)
					return
				}
			case 2:
				m := sender.Metrics()
				// Eager packets leave through backlog plans only, so the
				// sent tally can never outrun submissions — regardless of
				// how the threshold churn splits eager vs rendezvous.
				if m.PacketsSent > m.Submitted {
					t.Errorf("metrics inconsistent: %d packets sent of %d submitted", m.PacketsSent, m.Submitted)
					return
				}
				_ = sender.BacklogLen()
			}
		}
	}()

	<-firstRetune
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
				if s%16 == 0 {
					sender.Flush()
				}
			}
		}()
	}
	wg.Wait()
	// Tuning may have parked the tail behind an artificial delay with a
	// high flush count; keep flushing until everything lands.
	flushTick := time.NewTicker(10 * time.Millisecond)
	defer flushTick.Stop()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case <-done:
			close(stop)
			tunerWg.Wait()
			if retunes.Load() == 0 {
				t.Fatal("retune observer saw no events")
			}
			mu.Lock()
			defer mu.Unlock()
			for f := 1; f <= flows; f++ {
				if next[packet.FlowID(f)] != total/flows {
					t.Fatalf("flow %d incomplete: %d of %d", f, next[packet.FlowID(f)], total/flows)
				}
			}
			return
		case <-flushTick.C:
			if err := sender.SetKnobs(strategy.Knobs{}); err != nil {
				t.Fatal(err)
			}
			sender.Flush()
		case <-deadline:
			close(stop)
			tunerWg.Wait()
			mu.Lock()
			n := delivered
			mu.Unlock()
			t.Fatalf("timed out with %d/%d delivered", n, total)
		}
	}
}

// TestKnobsOneRule: a negative operating point is refused alike by New,
// SetKnobs and the tuning registry (strategy.Knobs.Validate is the one
// rule), and a refused SetKnobs leaves the engine where it was.
func TestKnobsOneRule(t *testing.T) {
	bad := []strategy.Knobs{
		{Lookahead: -1},
		{NagleDelay: -1},
		{NagleFlushCount: -1},
		{SearchBudget: -1},
		{RdvThreshold: -1},
	}
	good := strategy.Knobs{Lookahead: 3, NagleDelay: simnet.Microsecond, NagleFlushCount: 5, SearchBudget: 7, RdvThreshold: 4096}
	for _, k := range bad {
		cl, err := drivers.NewCluster(2, caps.MX)
		if err != nil {
			t.Fatal(err)
		}
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Bundle: b, Runtime: cl.Eng, Rails: []drivers.Driver{cl.Driver(0, "mx")}, Deliver: func(proto.Deliverable) {}, Knobs: k}
		if _, err := New(0, opt); err == nil {
			t.Errorf("New accepted %+v", k)
		}
		if err := strategy.RegisterTuning(strategy.Tuning{Name: "negative", Bundle: "aggregate", Knobs: k}); err == nil {
			t.Errorf("RegisterTuning accepted %+v", k)
		}
		opt.Knobs = good
		eng, err := New(0, opt)
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Metrics()
		if err := eng.SetKnobs(k); err == nil {
			t.Errorf("SetKnobs accepted %+v", k)
		}
		if after := eng.Metrics(); after.Knobs != good || after.Knobs != before.Knobs {
			t.Errorf("refused SetKnobs(%+v) moved the engine to %+v", k, after.Knobs)
		}
	}
}
