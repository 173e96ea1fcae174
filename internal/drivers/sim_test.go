package drivers

import (
	"bytes"
	"reflect"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
)

func testPair(t *testing.T, c caps.Caps) (*simnet.Engine, *Sim, *Sim) {
	t.Helper()
	eng := simnet.NewEngine()
	fab := NewFabric(c.Name)
	a, err := NewSim(eng, fab, 0, c, memsim.DefaultModel(), &stats.Set{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSim(eng, fab, 1, c, memsim.DefaultModel(), &stats.Set{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, b
}

func dataFrame(src, dst packet.NodeID, sizes ...int) *packet.Frame {
	f := &packet.Frame{Kind: packet.FrameData, Src: src, Dst: dst}
	for i, n := range sizes {
		f.Entries = append(f.Entries, packet.Entry{
			Flow: 1, Msg: packet.MsgID(i), Seq: 0, Last: true,
			Class: packet.ClassSmall, Payload: make([]byte, n),
		})
	}
	return f
}

func TestNICRejectsInvalidSetup(t *testing.T) {
	eng := simnet.NewEngine()
	fab := NewFabric("x")
	bad := caps.MX
	bad.Bandwidth = 0
	if _, err := NewSim(eng, fab, 0, bad, memsim.DefaultModel(), nil); err == nil {
		t.Fatal("invalid caps accepted")
	}
	badMem := memsim.DefaultModel()
	badMem.CopyBandwidth = 0
	if _, err := NewSim(eng, fab, 0, caps.MX, badMem, nil); err == nil {
		t.Fatal("invalid memory model accepted")
	}
	if _, err := NewSim(eng, fab, 0, caps.MX, memsim.DefaultModel(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSim(eng, fab, 0, caps.MX, memsim.DefaultModel(), nil); err == nil {
		t.Fatal("duplicate node attach accepted")
	}
}

func TestFrameDeliveryEndToEnd(t *testing.T) {
	eng, a, b := testPair(t, caps.MX)
	var gotSrc packet.NodeID
	var gotFrame *packet.Frame
	var deliveredAt simnet.Time
	b.SetRecvHandler(func(src packet.NodeID, f *packet.Frame) {
		gotSrc, gotFrame, deliveredAt = src, f, eng.Now()
	})
	f := dataFrame(0, 1, 64)
	if err := a.Post(0, f, 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if gotFrame == nil {
		t.Fatal("frame never delivered")
	}
	if gotSrc != 0 || gotFrame.Dst != 1 {
		t.Fatalf("delivery metadata wrong: src=%d dst=%d", gotSrc, gotFrame.Dst)
	}
	// Delivery time must be at least the profile's unavoidable costs.
	min := caps.MX.PostOverhead + caps.MX.WireLatency + caps.MX.RecvOverhead
	if deliveredAt < simnet.Time(min) {
		t.Fatalf("delivered at %v, below floor %v", deliveredAt, min)
	}
}

// landing reports the buffer behind a landed frame: its length, its
// capacity and whether it belongs to a pool size class. packet keeps the
// backing private, so the test reads it by reflection.
func landing(f *packet.Frame) (n, capacity int, pooled bool) {
	b := reflect.ValueOf(f).Elem().FieldByName("backing").Elem()
	return b.FieldByName("B").Len(), b.FieldByName("B").Cap(), b.FieldByName("class").Int() >= 0
}

// TestSimLandsFrames pins the simulated wire's contract: for every frame
// kind, the receiver gets a frame of its own, landed from the encoding the
// way the socket reader lands one — backed, in the buffer LandingBuf picks
// (exact-size for the kinds whose payload escapes), equal to the posted
// frame in every encoded field — and still carrying the two stamps the
// encoding drops.
func TestSimLandsFrames(t *testing.T) {
	eng, a, b := testPair(t, caps.MX)
	var got *packet.Frame
	b.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) { got = f })
	wants := seedFrames()
	for i, posted := range seedFrames() {
		want := wants[i]
		for _, f := range []*packet.Frame{posted, want} {
			f.Src, f.Dst, f.Posted = 0, 1, simnet.Time(100+i)
			for j := range f.Entries {
				f.Entries[j].Enqueued = simnet.Time(10 + j)
			}
		}
		got = nil
		if err := a.Post(0, posted, 0); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		switch {
		case got == nil:
			t.Fatalf("%v: not delivered", want.Kind)
		case got == posted:
			t.Fatalf("%v: the receiver got the posted frame object", want.Kind)
		case !got.Backed():
			t.Fatalf("%v: landed frame carries no backing buffer", want.Kind)
		}
		if got.Kind != want.Kind || got.Src != want.Src || got.Dst != want.Dst || got.Ctrl != want.Ctrl ||
			!bytes.Equal(got.Encode(nil), want.Encode(nil)) {
			t.Fatalf("landed %v, posted %v", got, want)
		}
		if got.Posted != want.Posted {
			t.Fatalf("%v: Posted %v, want %v", want.Kind, got.Posted, want.Posted)
		}
		for j := range want.Entries {
			if got.Entries[j].Enqueued != want.Entries[j].Enqueued {
				t.Fatalf("%v entry %d: Enqueued %v, want %v", want.Kind, j, got.Entries[j].Enqueued, want.Entries[j].Enqueued)
			}
		}
		n, capacity, pooled := landing(got)
		exact := want.Kind == packet.FrameRData || want.Kind == packet.FrameGetReply
		if n != want.WireSize() || exact && (pooled || capacity != n) || !exact && !pooled {
			t.Fatalf("%v: landed in %d/%d bytes (pooled %v) for a %d-byte frame", want.Kind, n, capacity, pooled, want.WireSize())
		}
		packet.ReleaseFrame(got)
	}
}

func TestChannelBusyThenIdleUpcall(t *testing.T) {
	eng, a, _ := testPair(t, caps.MX)
	var idleAt simnet.Time
	idleCalls := 0
	a.SetIdleHandler(func(ch int) {
		idleCalls++
		idleAt = eng.Now()
		if ch != 0 {
			t.Errorf("idle on channel %d, want 0", ch)
		}
	})
	f := dataFrame(0, 1, 1024)
	if err := a.Post(0, f, 0); err != nil {
		t.Fatal(err)
	}
	if a.ChannelIdle(0) {
		t.Fatal("channel should be busy right after Post")
	}
	if err := a.Post(0, dataFrame(0, 1, 8), 0); err != ErrChannelBusy {
		t.Fatalf("posting to busy channel: err = %v, want ErrChannelBusy", err)
	}
	// Other channels remain free.
	if _, ok := a.FirstIdle(); !ok {
		t.Fatal("all channels reported busy after one post")
	}
	eng.Run()
	if idleCalls != 1 {
		t.Fatalf("idle upcalls = %d, want 1", idleCalls)
	}
	if !a.ChannelIdle(0) {
		t.Fatal("channel still busy after completion")
	}
	// Idle fires when serialization completes — before wire+recv delivery.
	f2 := dataFrame(0, 1, 1024)
	wire := caps.MX.WireLatency
	_ = wire
	if idleAt <= 0 {
		t.Fatal("idle time not recorded")
	}
	_ = f2
}

func TestIdleFiresBeforeDelivery(t *testing.T) {
	eng, a, b := testPair(t, caps.MX)
	var idleAt, recvAt simnet.Time
	a.SetIdleHandler(func(int) { idleAt = eng.Now() })
	b.SetRecvHandler(func(packet.NodeID, *packet.Frame) { recvAt = eng.Now() })
	if err := a.Post(0, dataFrame(0, 1, 256), 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !(idleAt < recvAt) {
		t.Fatalf("idle at %v should precede delivery at %v", idleAt, recvAt)
	}
	if recvAt-idleAt < simnet.Time(caps.MX.WireLatency) {
		t.Fatalf("delivery-idle gap %v below wire latency %v", recvAt-idleAt, caps.MX.WireLatency)
	}
}

func TestHostExtraDelaysChannel(t *testing.T) {
	engA, a, _ := testPair(t, caps.MX)
	var plainIdle simnet.Time
	a.SetIdleHandler(func(int) { plainIdle = engA.Now() })
	if err := a.Post(0, dataFrame(0, 1, 128), 0); err != nil {
		t.Fatal(err)
	}
	engA.Run()

	engB, c, _ := testPair(t, caps.MX)
	var extraIdle simnet.Time
	c.SetIdleHandler(func(int) { extraIdle = engB.Now() })
	const extra = 5 * simnet.Microsecond
	if err := c.Post(0, dataFrame(0, 1, 128), extra); err != nil {
		t.Fatal(err)
	}
	engB.Run()
	if extraIdle-plainIdle != simnet.Time(extra) {
		t.Fatalf("hostExtra shifted idle by %v, want %v", extraIdle-plainIdle, extra)
	}
}

func TestNegativeHostExtraRejected(t *testing.T) {
	_, a, _ := testPair(t, caps.MX)
	if err := a.Post(0, dataFrame(0, 1, 8), -1); err == nil {
		t.Fatal("negative hostExtra accepted")
	}
}

func TestWrongSourceRejected(t *testing.T) {
	_, a, _ := testPair(t, caps.MX)
	if err := a.Post(0, dataFrame(1, 0, 8), 0); err == nil {
		t.Fatal("frame with foreign src accepted")
	}
	if err := a.Post(99, dataFrame(0, 1, 8), 0); err == nil {
		t.Fatal("nonexistent channel accepted")
	}
	if err := a.Post(0, dataFrame(0, 7, 8), 0); err == nil {
		t.Fatal("frame for a node not on the fabric accepted")
	}
}

func TestLargerFramesTakeLonger(t *testing.T) {
	measure := func(size int) simnet.Time {
		eng, a, b := testPair(t, caps.MX)
		var at simnet.Time
		b.SetRecvHandler(func(packet.NodeID, *packet.Frame) { at = eng.Now() })
		if err := a.Post(0, dataFrame(0, 1, size), 0); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return at
	}
	small, large := measure(64), measure(64*1024)
	if large <= small {
		t.Fatalf("64KiB (%v) not slower than 64B (%v)", large, small)
	}
	// 64 KiB at 250 MB/s is ~262 µs of serialization.
	if large < simnet.Time(250*simnet.Microsecond) {
		t.Fatalf("64KiB delivered in %v, too fast for 250MB/s", large)
	}
}

func TestAggregatedFrameBeatsSeparateSends(t *testing.T) {
	// The physical basis of the paper's claim: 8 × 64 B as one frame
	// completes sooner than as 8 frames on one channel.
	sizes := make([]int, 8)
	for i := range sizes {
		sizes[i] = 64
	}

	// One aggregate.
	engA, a, b := testPair(t, caps.MX)
	var aggDone simnet.Time
	b.SetRecvHandler(func(packet.NodeID, *packet.Frame) { aggDone = engA.Now() })
	if err := a.Post(0, dataFrame(0, 1, sizes...), 0); err != nil {
		t.Fatal(err)
	}
	engA.Run()

	// Eight singles, posted back-to-back on the same channel.
	engB, c, d := testPair(t, caps.MX)
	var lastDone simnet.Time
	recv := 0
	d.SetRecvHandler(func(packet.NodeID, *packet.Frame) {
		recv++
		lastDone = engB.Now()
	})
	pending := sizes
	var send func(ch int)
	send = func(ch int) {
		if len(pending) == 0 {
			return
		}
		if err := c.Post(0, dataFrame(0, 1, pending[0]), 0); err != nil {
			t.Fatal(err)
		}
		pending = pending[1:]
	}
	c.SetIdleHandler(send)
	send(0)
	engB.Run()
	if recv != 8 {
		t.Fatalf("received %d singles, want 8", recv)
	}
	if aggDone >= lastDone {
		t.Fatalf("aggregate (%v) not faster than singles (%v)", aggDone, lastDone)
	}
	speedup := float64(lastDone) / float64(aggDone)
	if speedup < 2 {
		t.Fatalf("aggregation speedup %.2fx, expected >= 2x for 8 tiny packets", speedup)
	}
}

func TestReceiveOccupancyQueues(t *testing.T) {
	// Two frames from two senders arriving near-simultaneously must be
	// processed sequentially by the destination's receive engine.
	eng := simnet.NewEngine()
	fab := NewFabric("mx")
	mem := memsim.DefaultModel()
	a, _ := NewSim(eng, fab, 0, caps.MX, mem, nil)
	b, _ := NewSim(eng, fab, 1, caps.MX, mem, nil)
	dst, _ := NewSim(eng, fab, 2, caps.MX, mem, nil)
	var times []simnet.Time
	dst.SetRecvHandler(func(packet.NodeID, *packet.Frame) { times = append(times, eng.Now()) })
	if err := a.Post(0, dataFrame(0, 2, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Post(0, dataFrame(1, 2, 16), 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	gap := times[1] - times[0]
	if gap < simnet.Time(caps.MX.RecvOverhead) {
		t.Fatalf("receive gap %v below RecvOverhead %v — receiver not serialized", gap, caps.MX.RecvOverhead)
	}
}

func TestMTUSegmentationCost(t *testing.T) {
	// A frame bigger than the MTU pays extra header bytes per segment: the
	// per-byte rate for a 16 KiB frame must exceed that of a 2 KiB frame.
	measure := func(size int) float64 {
		eng, a, b := testPair(t, caps.MX)
		var at simnet.Time
		b.SetRecvHandler(func(packet.NodeID, *packet.Frame) { at = eng.Now() })
		if err := a.Post(0, dataFrame(0, 1, size), 0); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return float64(at) / float64(size)
	}
	small := measure(2048)  // below MTU
	large := measure(16384) // 4+ segments
	// Fixed costs dominate the small frame, so per-byte cost is higher
	// there; what we check is that segmentation charged *something*: the
	// bytes-per-ns rate of the large frame must stay below the raw link
	// rate once headers repeat.
	_ = small
	rawNsPerByte := 1e9 / caps.MX.Bandwidth
	if large <= rawNsPerByte {
		t.Fatalf("large frame per-byte time %v <= raw serialization %v — headers not charged", large, rawNsPerByte)
	}
}

func TestStatsCounters(t *testing.T) {
	eng := simnet.NewEngine()
	fab := NewFabric("mx")
	set := &stats.Set{}
	a, _ := NewSim(eng, fab, 0, caps.MX, memsim.DefaultModel(), set)
	_, _ = NewSim(eng, fab, 1, caps.MX, memsim.DefaultModel(), set)
	if err := a.Post(0, dataFrame(0, 1, 32, 32, 32), 0); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if set.CounterValue("nic.tx.frames") != 1 {
		t.Fatalf("tx.frames = %d", set.CounterValue("nic.tx.frames"))
	}
	if set.CounterValue("nic.tx.aggregated_packets") != 3 {
		t.Fatalf("aggregated_packets = %d", set.CounterValue("nic.tx.aggregated_packets"))
	}
	if set.CounterValue("nic.rx.frames") != 1 {
		t.Fatalf("rx.frames = %d", set.CounterValue("nic.rx.frames"))
	}
}

// TestEstimateEqualsCharge pins the strategies' cost estimate to what the
// simulated NIC charges: for a data frame under PIOMax, one over it and one
// over the MTU, strategy.FrameOccupancy plus the host extra is exactly the
// channel time Post produces, and nic.tx.wire_bytes counts one PacketHeader
// per MTU segment.
func TestEstimateEqualsCharge(t *testing.T) {
	const hostExtra = 250 * simnet.Nanosecond
	for _, c := range []caps.Caps{caps.MX, caps.Elan, caps.TCP} {
		for _, row := range []struct {
			kind string
			size int
		}{
			{"pio", c.PIOMax / 2},
			{"dma", c.PIOMax + 1},
			{"segmented", 3 * c.MTU},
		} {
			t.Run(c.Name+"/"+row.kind, func(t *testing.T) {
				eng := simnet.NewEngine()
				fab := NewFabric(c.Name)
				set := &stats.Set{}
				mem := memsim.DefaultModel()
				a, err := NewSim(eng, fab, 0, c, mem, set)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := NewSim(eng, fab, 1, c, mem, nil); err != nil {
					t.Fatal(err)
				}
				var idleAt simnet.Time
				a.SetIdleHandler(func(int) { idleAt = eng.Now() })
				f := dataFrame(0, 1, row.size)
				if err := a.Post(0, f, hostExtra); err != nil {
					t.Fatal(err)
				}
				eng.Run()

				pkts := []*packet.Packet{{Payload: f.Entries[0].Payload}}
				if want := strategy.FrameOccupancy(c, mem, pkts) + hostExtra; idleAt != simnet.Time(want) {
					t.Fatalf("Post held the channel %v, FrameOccupancy+hostExtra = %v", idleAt, want)
				}
				segs := (f.WireSize() + c.PacketHeader + c.MTU - 1) / c.MTU
				if row.kind == "segmented" && segs < 2 {
					t.Fatalf("%d-byte frame not segmented at MTU %d", f.WireSize(), c.MTU)
				}
				if got, want := set.CounterValue("nic.tx.wire_bytes"), uint64(f.WireSize()+segs*c.PacketHeader); got != want {
					t.Fatalf("nic.tx.wire_bytes = %d, want %d (%d segment headers)", got, want, segs)
				}
			})
		}
	}
}
