package core

import (
	"bytes"
	"fmt"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// testNet is a two-node (or n-node) simulated test harness.
type testNet struct {
	cl      *drivers.Cluster
	engines []*Engine
	inbox   [][]proto.Deliverable // per node, in delivery order
}

func newNet(t *testing.T, nodes int, bundleName string, mutate func(*Options), profiles ...caps.Caps) *testNet {
	t.Helper()
	if len(profiles) == 0 {
		profiles = []caps.Caps{caps.MX}
	}
	cl, err := drivers.NewCluster(nodes, profiles...)
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNet{cl: cl, inbox: make([][]proto.Deliverable, nodes)}
	for n := 0; n < nodes; n++ {
		n := n
		b, err := strategy.New(bundleName)
		if err != nil {
			t.Fatal(err)
		}
		var rails []drivers.Driver
		for _, d := range cl.NodeDrivers(packet.NodeID(n)) {
			rails = append(rails, d)
		}
		opt := Options{
			Bundle:  b,
			Runtime: cl.Eng,
			Rails:   rails,
			Deliver: func(d proto.Deliverable) { tn.inbox[n] = append(tn.inbox[n], d) },
			Stats:   cl.Stats,
		}
		if mutate != nil {
			mutate(&opt)
		}
		eng, err := New(packet.NodeID(n), opt)
		if err != nil {
			t.Fatal(err)
		}
		tn.engines = append(tn.engines, eng)
	}
	return tn
}

// singleChanMX is MX restricted to one send channel, so backlogs build up
// deterministically in tests.
func singleChanMX() caps.Caps {
	c := caps.MX
	c.Channels = 1
	return c
}

func pkt(flow packet.FlowID, seq int, src, dst packet.NodeID, size int) *packet.Packet {
	return &packet.Packet{
		Flow: flow, Msg: 1, Seq: seq, Src: src, Dst: dst,
		Class: packet.ClassSmall, Payload: bytes.Repeat([]byte{byte(seq + 1)}, size),
	}
}

func TestNewValidation(t *testing.T) {
	cl, _ := drivers.NewCluster(2, caps.MX)
	b, _ := strategy.New("fifo")
	rail := []drivers.Driver{cl.Driver(0, "mx")}
	del := func(proto.Deliverable) {}

	cases := []struct {
		name string
		opt  Options
	}{
		{"no runtime", Options{Bundle: b, Rails: rail, Deliver: del}},
		{"no rails", Options{Bundle: b, Runtime: cl.Eng, Deliver: del}},
		{"no deliver", Options{Bundle: b, Runtime: cl.Eng, Rails: rail}},
		{"empty bundle", Options{Runtime: cl.Eng, Rails: rail, Deliver: del}},
		{"negative nagle", Options{Bundle: b, Runtime: cl.Eng, Rails: rail, Deliver: del, Knobs: strategy.Knobs{NagleDelay: -1}}},
	}
	for _, tc := range cases {
		if _, err := New(0, tc.opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Wrong node ownership.
	if _, err := New(1, Options{Bundle: b, Runtime: cl.Eng, Rails: rail, Deliver: del}); err == nil {
		t.Error("rail of node 0 accepted on engine for node 1")
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	p := pkt(1, 0, 0, 1, 256)
	want := append([]byte(nil), p.Payload...)
	if err := tn.engines[0].Submit(p); err != nil {
		t.Fatal(err)
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 1 {
		t.Fatalf("delivered %d packets", len(tn.inbox[1]))
	}
	got := tn.inbox[1][0]
	if got.Src != 0 || got.Pkt.Flow != 1 || !bytes.Equal(got.Pkt.Payload, want) {
		t.Fatalf("delivery mismatch: %+v", got)
	}
	if tn.cl.Stats.CounterValue("core.delivered") != 1 {
		t.Fatal("delivered counter wrong")
	}
}

func TestSubmitValidation(t *testing.T) {
	tn := newNet(t, 2, "fifo", nil)
	if err := tn.engines[0].Submit(pkt(1, 0, 1, 0, 8)); err == nil {
		t.Fatal("foreign src accepted")
	}
	bad := pkt(1, 0, 0, 1, 8)
	bad.Class = packet.NumClasses
	if err := tn.engines[0].Submit(bad); err == nil {
		t.Fatal("invalid packet accepted")
	}
	tn.engines[0].Close()
	if err := tn.engines[0].Submit(pkt(1, 0, 0, 1, 8)); err == nil {
		t.Fatal("submit after close accepted")
	}
}

func TestCrossFlowAggregationReducesFrames(t *testing.T) {
	// One send channel. 32 tiny packets from 8 flows submitted back to
	// back: the first occupies the wire, the rest accumulate and must
	// aggregate into far fewer frames.
	tn := newNet(t, 2, "aggregate", nil, singleChanMX())
	const flows, perFlow = 8, 4
	for f := 0; f < flows; f++ {
		for s := 0; s < perFlow; s++ {
			if err := tn.engines[0].Submit(pkt(packet.FlowID(f+1), s, 0, 1, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != flows*perFlow {
		t.Fatalf("delivered %d of %d", len(tn.inbox[1]), flows*perFlow)
	}
	frames := tn.cl.Stats.CounterValue("nic.tx.frames")
	if frames >= flows*perFlow/2 {
		t.Fatalf("aggregation ineffective: %d frames for %d packets", frames, flows*perFlow)
	}
	if tn.cl.Stats.CounterValue("core.aggregates") == 0 {
		t.Fatal("no aggregates recorded")
	}
}

func TestFIFOBaselineSendsOneFramePerPacket(t *testing.T) {
	tn := newNet(t, 2, "fifo", nil, singleChanMX())
	const n = 16
	for i := 0; i < n; i++ {
		if err := tn.engines[0].Submit(pkt(packet.FlowID(i+1), 0, 0, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != n {
		t.Fatalf("delivered %d", len(tn.inbox[1]))
	}
	if frames := tn.cl.Stats.CounterValue("nic.tx.frames"); frames != n {
		t.Fatalf("fifo posted %d frames for %d packets", frames, n)
	}
}

func TestAggregateBeatsFIFOOnCompletionTime(t *testing.T) {
	run := func(bundle string) simnet.Time {
		tn := newNet(t, 2, bundle, nil, singleChanMX())
		for f := 0; f < 8; f++ {
			for s := 0; s < 4; s++ {
				if err := tn.engines[0].Submit(pkt(packet.FlowID(f+1), s, 0, 1, 64)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tn.cl.Eng.Run()
	}
	fifo := run("fifo")
	agg := run("aggregate")
	if agg >= fifo {
		t.Fatalf("aggregate (%v) not faster than fifo (%v)", agg, fifo)
	}
	speedup := float64(fifo) / float64(agg)
	if speedup < 1.5 {
		t.Fatalf("speedup %.2f below expectation", speedup)
	}
}

func TestPerFlowOrderingPreserved(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil, singleChanMX())
	rng := simnet.NewRNG(42)
	const flows, perFlow = 5, 20
	for s := 0; s < perFlow; s++ {
		for f := 0; f < flows; f++ {
			size := rng.Range(8, 2000)
			if err := tn.engines[0].Submit(pkt(packet.FlowID(f+1), s, 0, 1, size)); err != nil {
				t.Fatal(err)
			}
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != flows*perFlow {
		t.Fatalf("delivered %d", len(tn.inbox[1]))
	}
	next := map[packet.FlowID]int{}
	for _, d := range tn.inbox[1] {
		if d.Pkt.Seq != next[d.Pkt.Flow] {
			t.Fatalf("flow %d delivered seq %d, want %d", d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
		}
		next[d.Pkt.Flow]++
	}
}

func TestNagleDelayAggregatesSparseTraffic(t *testing.T) {
	// Packets trickle in every 2µs — each would normally be sent alone
	// (the channel drains faster than arrivals). A 16µs Nagle delay
	// collects them.
	run := func(nagle simnet.Duration) (frames uint64, end simnet.Time) {
		tn := newNet(t, 2, "aggregate", func(o *Options) {
			o.NagleDelay = nagle
			o.NagleFlushCount = 16
		}, singleChanMX())
		for i := 0; i < 8; i++ {
			i := i
			tn.cl.Eng.At(simnet.Time(i)*simnet.Time(2*simnet.Microsecond), "submit", func() {
				if err := tn.engines[0].Submit(pkt(packet.FlowID(i+1), 0, 0, 1, 32)); err != nil {
					t.Fatal(err)
				}
			})
		}
		end = tn.cl.Eng.Run()
		if len(tn.inbox[1]) != 8 {
			t.Fatalf("delivered %d", len(tn.inbox[1]))
		}
		return tn.cl.Stats.CounterValue("nic.tx.frames"), end
	}
	framesNoNagle, _ := run(0)
	framesNagle, _ := run(16 * simnet.Microsecond)
	if framesNagle >= framesNoNagle {
		t.Fatalf("nagle did not reduce frames: %d vs %d", framesNagle, framesNoNagle)
	}
	if framesNagle > 3 {
		t.Fatalf("nagle frames = %d, want <= 3", framesNagle)
	}
}

func TestNagleFlushCountOverridesDelay(t *testing.T) {
	// With flush count 4, the fourth packet must flush immediately even
	// though the delay has not expired.
	tn := newNet(t, 2, "aggregate", func(o *Options) {
		o.NagleDelay = 1 * simnet.Millisecond
		o.NagleFlushCount = 4
	}, singleChanMX())
	for i := 0; i < 4; i++ {
		if err := tn.engines[0].Submit(pkt(packet.FlowID(i+1), 0, 0, 1, 32)); err != nil {
			t.Fatal(err)
		}
	}
	end := tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 4 {
		t.Fatalf("delivered %d", len(tn.inbox[1]))
	}
	if end >= simnet.Time(1*simnet.Millisecond) {
		t.Fatalf("flush count ignored; completion waited for the timer (%v)", end)
	}
}

func TestFlushDrainsNagle(t *testing.T) {
	tn := newNet(t, 2, "aggregate", func(o *Options) {
		o.NagleDelay = 1 * simnet.Millisecond
		o.NagleFlushCount = 100
	}, singleChanMX())
	if err := tn.engines[0].Submit(pkt(1, 0, 0, 1, 32)); err != nil {
		t.Fatal(err)
	}
	tn.engines[0].Flush()
	end := tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 1 {
		t.Fatal("flush did not send")
	}
	if end >= simnet.Time(1*simnet.Millisecond) {
		t.Fatalf("completion at %v waited for the nagle timer", end)
	}
}

func TestLookaheadWindowBoundsAggregation(t *testing.T) {
	run := func(window int) float64 {
		tn := newNet(t, 2, "aggregate", func(o *Options) {
			o.Lookahead = window
		}, singleChanMX())
		for i := 0; i < 16; i++ {
			if err := tn.engines[0].Submit(pkt(packet.FlowID(i+1), 0, 0, 1, 32)); err != nil {
				t.Fatal(err)
			}
		}
		tn.cl.Eng.Run()
		if len(tn.inbox[1]) != 16 {
			t.Fatalf("delivered %d", len(tn.inbox[1]))
		}
		return float64(tn.cl.Stats.CounterValue("nic.tx.frames"))
	}
	narrow := run(2)
	wide := run(0)
	if wide >= narrow {
		t.Fatalf("wider lookahead should mean fewer frames: narrow=%v wide=%v", narrow, wide)
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil, singleChanMX())
	big := pkt(1, 0, 0, 1, 64<<10) // 64 KiB > MX threshold
	big.Class = packet.ClassBulk
	want := append([]byte(nil), big.Payload...)
	if err := tn.engines[0].Submit(big); err != nil {
		t.Fatal(err)
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 1 {
		t.Fatalf("delivered %d", len(tn.inbox[1]))
	}
	if !bytes.Equal(tn.inbox[1][0].Pkt.Payload, want) {
		t.Fatal("rendezvous payload corrupted")
	}
	st := tn.cl.Stats
	if st.CounterValue("core.rdv_started") != 1 || st.CounterValue("core.rdv_granted") != 1 {
		t.Fatalf("rdv counters: started=%d granted=%d",
			st.CounterValue("core.rdv_started"), st.CounterValue("core.rdv_granted"))
	}
	// RTS + CTS + RData = at least 3 frames.
	if st.CounterValue("nic.tx.frames") < 3 {
		t.Fatal("rendezvous did not use control frames")
	}
}

// TestSimReceiversOwnTheirBytes: a simulated receiver's payloads are its
// own, eager and rendezvous alike — a sender that reuses its buffers after
// delivery cannot change what the receiver holds.
func TestSimReceiversOwnTheirBytes(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil, singleChanMX())
	small := pkt(1, 0, 0, 1, 64)
	big := pkt(2, 0, 0, 1, 64<<10) // 64 KiB > MX threshold: rendezvous
	big.Class = packet.ClassBulk
	for _, p := range []*packet.Packet{small, big} {
		if err := tn.engines[0].Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 2 {
		t.Fatalf("delivered %d, want 2", len(tn.inbox[1]))
	}
	if got := tn.cl.Stats.CounterValue("core.rdv_granted"); got != 1 {
		t.Fatalf("rdv granted = %d: the 64 KiB packet did not go by rendezvous", got)
	}
	var kept, want [][]byte
	for _, d := range tn.inbox[1] {
		kept = append(kept, d.Pkt.Payload)
		want = append(want, bytes.Clone(d.Pkt.Payload))
	}
	for _, p := range []*packet.Packet{small, big} {
		for i := range p.Payload {
			p.Payload[i] = 0xEE
		}
	}
	for i := range kept {
		if !bytes.Equal(kept[i], want[i]) {
			t.Errorf("delivery %d (%d B) changed when the sender reused its buffer", i, len(kept[i]))
		}
	}
}

func TestExpressStaysEagerRegardlessOfSize(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	big := pkt(1, 0, 0, 1, 16<<10)
	big.Recv = packet.RecvExpress
	if err := tn.engines[0].Submit(big); err != nil {
		t.Fatal(err)
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 1 {
		t.Fatal("express packet not delivered")
	}
	if tn.cl.Stats.CounterValue("core.rdv_started") != 0 {
		t.Fatal("express packet used rendezvous")
	}
}

func TestRMAThroughEngines(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	window := make([]byte, 4096)
	tn.engines[1].RegisterWindow(3, window)

	putDone := false
	if err := tn.engines[0].Put(1, 3, 100, []byte("payload"), func() { putDone = true }); err != nil {
		t.Fatal(err)
	}
	tn.cl.Eng.Run()
	if !putDone {
		t.Fatal("put not acknowledged")
	}
	if string(window[100:107]) != "payload" {
		t.Fatal("put did not write")
	}

	var got []byte
	if err := tn.engines[0].Get(1, 3, 100, 7, func(d []byte) { got = d }); err != nil {
		t.Fatal(err)
	}
	tn.cl.Eng.Run()
	if string(got) != "payload" {
		t.Fatalf("get returned %q", got)
	}
	// Error paths.
	if err := tn.engines[0].Put(0, 3, 0, nil, nil); err == nil {
		t.Fatal("self put accepted")
	}
	if err := tn.engines[0].Get(1, 3, 0, 1, nil); err == nil {
		t.Fatal("get without callback accepted")
	}
}

func TestMultiRailSharesLoad(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil, caps.MX, caps.Elan)
	for i := 0; i < 64; i++ {
		if err := tn.engines[0].Submit(pkt(packet.FlowID(i%8+1), i/8, 0, 1, 2048)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 64 {
		t.Fatalf("delivered %d", len(tn.inbox[1]))
	}
	mx := tn.cl.Stats.CounterValue("core.rail.mx.frames")
	elan := tn.cl.Stats.CounterValue("core.rail.elan.frames")
	if mx == 0 || elan == 0 {
		t.Fatalf("rails unused: mx=%d elan=%d", mx, elan)
	}
}

func TestDynamicBundleSwitch(t *testing.T) {
	tn := newNet(t, 2, "fifo", nil, singleChanMX())
	agg, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.engines[0].SetBundle(agg); err != nil {
		t.Fatal(err)
	}
	if tn.engines[0].Bundle().Name != "aggregate" {
		t.Fatal("bundle not switched")
	}
	if err := tn.engines[0].SetBundle(strategy.Bundle{}); err == nil {
		t.Fatal("empty bundle accepted")
	}
	for i := 0; i < 8; i++ {
		if err := tn.engines[0].Submit(pkt(packet.FlowID(i+1), 0, 0, 1, 32)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if tn.cl.Stats.CounterValue("core.aggregates") == 0 {
		t.Fatal("switched bundle not in effect")
	}
	if tn.cl.Stats.CounterValue("core.policy_switches") != 1 {
		t.Fatal("policy switch not counted")
	}
}

func TestRuntimeTuningSetters(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	if err := tn.engines[0].SetKnobs(strategy.Knobs{Lookahead: 4, NagleDelay: 5 * simnet.Microsecond, NagleFlushCount: 8}); err != nil {
		t.Fatal(err)
	}
	if tn.engines[0].BacklogLen() != 0 {
		t.Fatal("backlog not empty")
	}
	c, b := tn.engines[0].QueuedFrames()
	if c != 0 || b != 0 {
		t.Fatal("queues not empty")
	}
	if tn.engines[0].Node() != 0 || len(tn.engines[0].Rails()) != 1 {
		t.Fatal("accessors broken")
	}
	if tn.engines[0].Stats() == nil {
		t.Fatal("stats nil")
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	for i := 0; i < 10; i++ {
		if err := tn.engines[0].Submit(pkt(1, i, 0, 1, 128)); err != nil {
			t.Fatal(err)
		}
		if err := tn.engines[1].Submit(pkt(2, i, 1, 0, 128)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[0]) != 10 || len(tn.inbox[1]) != 10 {
		t.Fatalf("deliveries: %d / %d", len(tn.inbox[0]), len(tn.inbox[1]))
	}
}

func TestThreeNodeRouting(t *testing.T) {
	tn := newNet(t, 3, "aggregate", nil, singleChanMX())
	// Node 0 sends interleaved traffic to nodes 1 and 2.
	for i := 0; i < 10; i++ {
		dst := packet.NodeID(i%2 + 1)
		flow := packet.FlowID(dst) // one flow per destination
		if err := tn.engines[0].Submit(pkt(flow, i/2, 0, dst, 64)); err != nil {
			t.Fatal(err)
		}
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != 5 || len(tn.inbox[2]) != 5 {
		t.Fatalf("deliveries: %d / %d", len(tn.inbox[1]), len(tn.inbox[2]))
	}
	for node := 1; node <= 2; node++ {
		for i, d := range tn.inbox[node] {
			if d.Pkt.Seq != i {
				t.Fatalf("node %d out of order", node)
			}
		}
	}
}

func TestReplyFromDeliveryCallback(t *testing.T) {
	// The deliver upcall submits a response — the engine must tolerate
	// re-entrant Submit (RPC-style usage).
	cl, err := drivers.NewCluster(2, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	var engines [2]*Engine
	var got []string
	mk := func(n packet.NodeID, deliver proto.DeliverFunc) *Engine {
		b, _ := strategy.New("aggregate")
		eng, err := New(n, Options{
			Bundle:  b,
			Runtime: cl.Eng,
			Rails:   []drivers.Driver{cl.Driver(n, "mx")},
			Deliver: deliver,
			Stats:   cl.Stats,
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	engines[1] = mk(1, func(d proto.Deliverable) {
		// Echo back.
		reply := pkt(9, 0, 1, 0, 16)
		reply.Payload = append([]byte("re:"), d.Pkt.Payload[:3]...)
		if err := engines[1].Submit(reply); err != nil {
			t.Error(err)
		}
	})
	engines[0] = mk(0, func(d proto.Deliverable) {
		got = append(got, string(d.Pkt.Payload))
	})
	p := pkt(1, 0, 0, 1, 16)
	copy(p.Payload, "abc")
	if err := engines[0].Submit(p); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if len(got) != 1 || got[0] != "re:abc" {
		t.Fatalf("echo = %v", got)
	}
}

func TestManyFlowsManySizesStress(t *testing.T) {
	tn := newNet(t, 2, "aggregate", func(o *Options) {
		o.NagleDelay = 2 * simnet.Microsecond
	}, singleChanMX())
	rng := simnet.NewRNG(7)
	const flows = 12
	seqs := make([]int, flows+1)
	total := 0
	for i := 0; i < 500; i++ {
		f := rng.Range(1, flows)
		size := rng.Pareto(8, 30000, 1.3)
		p := pkt(packet.FlowID(f), seqs[f], 0, 1, size)
		if size > 8192 {
			p.Class = packet.ClassBulk
		}
		seqs[f]++
		total++
		at := simnet.Time(rng.Intn(2_000_000))
		tn.cl.Eng.At(at, "submit", func() {
			if err := tn.engines[0].Submit(p); err != nil {
				t.Error(err)
			}
		})
	}
	tn.cl.Eng.Run()
	if len(tn.inbox[1]) != total {
		t.Fatalf("delivered %d of %d", len(tn.inbox[1]), total)
	}
	// Ordering oracle per flow.
	next := map[packet.FlowID]int{}
	for _, d := range tn.inbox[1] {
		if d.Pkt.Seq != next[d.Pkt.Flow] {
			t.Fatalf("flow %d: seq %d, want %d", d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
		}
		next[d.Pkt.Flow]++
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (simnet.Time, uint64, string) {
		tn := newNet(t, 2, "aggregate", func(o *Options) {
			o.NagleDelay = 4 * simnet.Microsecond
		}, singleChanMX())
		rng := simnet.NewRNG(99)
		seqs := map[packet.FlowID]int{}
		for i := 0; i < 200; i++ {
			f := packet.FlowID(rng.Range(1, 6))
			p := pkt(f, seqs[f], 0, 1, rng.Range(8, 4096))
			seqs[f]++
			tn.cl.Eng.At(simnet.Time(rng.Intn(1_000_000)), "s", func() {
				_ = tn.engines[0].Submit(p)
			})
		}
		end := tn.cl.Eng.Run()
		sig := ""
		for _, d := range tn.inbox[1] {
			sig += fmt.Sprintf("%d/%d;", d.Pkt.Flow, d.Pkt.Seq)
		}
		return end, tn.cl.Stats.CounterValue("nic.tx.frames"), sig
	}
	e1, f1, s1 := run()
	e2, f2, s2 := run()
	if e1 != e2 || f1 != f2 || s1 != s2 {
		t.Fatal("simulation not deterministic across identical runs")
	}
}
