package perf

import (
	"fmt"
	"sync/atomic"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// The retune battery covers what a rail-weight delta does with a backlog
// queued behind gated rails: work the old weights kept off an idle rail is
// re-offered by the delta itself, structurally pinned work stays put, and
// the delta allocates nothing per queued packet. gatedSink is the
// instrument — a driver whose channel-idle state the test controls, so
// packets queue without draining until the test opens a gate.

// gatedSink is sinkDriver with a gate on channel idleness: while closed,
// every pump sees a busy channel and queued work stays queued.
type gatedSink struct {
	node   packet.NodeID
	caps   caps.Caps
	idle   atomic.Bool
	posted atomic.Uint64
	onPost func(*packet.Frame)
	fn     drivers.IdleFunc
}

func (d *gatedSink) Name() string                       { return d.caps.Name }
func (d *gatedSink) Node() packet.NodeID                { return d.node }
func (d *gatedSink) Caps() caps.Caps                    { return d.caps }
func (d *gatedSink) Mem() memsim.Model                  { return memsim.DefaultModel() }
func (d *gatedSink) NumChannels() int                   { return d.caps.Channels }
func (d *gatedSink) ChannelIdle(ch int) bool            { return d.idle.Load() }
func (d *gatedSink) SetIdleHandler(fn drivers.IdleFunc) { d.fn = fn }
func (d *gatedSink) SetRecvHandler(drivers.RecvFunc)    {}
func (d *gatedSink) Close() error                       { return nil }

func (d *gatedSink) FirstIdle() (int, bool) {
	if d.idle.Load() {
		return 0, true
	}
	return 0, false
}

func (d *gatedSink) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	d.posted.Add(1)
	if d.onPost != nil {
		d.onPost(f)
	}
	packet.ReleaseFrame(f)
	return nil
}

// retuneHarness is an engine over two gated rails — "lo", the
// low-latency rail every small aggregate is structurally eligible for, and
// "fat", a higher-bandwidth rail with a tighter eager cap — scheduled by
// the weight-tunable ScheduledRail (the controller's retune target).
type retuneHarness struct {
	eng   *core.Engine
	lo    *gatedSink
	fat   *gatedSink
	sched *strategy.ScheduledRail
}

func newRetuneHarness(tb testing.TB) *retuneHarness {
	tb.Helper()
	// The engine sorts rails by driver name for deterministic indexing, so
	// the names are chosen to keep engine rail order == caps array order.
	loCaps := caps.MX
	loCaps.Name = "a-lo"
	loCaps.WireLatency = 500
	loCaps.Bandwidth = 100e6
	loCaps.MaxAggregate = 32 * 1024
	loCaps.Channels = 1
	fatCaps := caps.Elan
	fatCaps.Name = "b-fat"
	fatCaps.WireLatency = 4000
	fatCaps.Bandwidth = 900e6
	fatCaps.MaxAggregate = 16 * 1024
	fatCaps.Channels = 1

	bundle, err := strategy.New("aggregate")
	if err != nil {
		tb.Fatal(err)
	}
	sched := strategy.NewScheduledRail([]caps.Caps{loCaps, fatCaps})
	bundle.Rail = sched
	h := &retuneHarness{
		lo:    &gatedSink{node: 0, caps: loCaps},
		fat:   &gatedSink{node: 0, caps: fatCaps},
		sched: sched,
	}
	h.eng, err = core.New(0, core.Options{
		Bundle:  bundle,
		Runtime: simnet.NewRealRuntime(),
		Rails:   []drivers.Driver{h.lo, h.fat},
		Deliver: func(proto.Deliverable) {},
	})
	if err != nil {
		tb.Fatal(err)
	}
	// Everything stays eager: the battery measures backlog scans, not
	// rendezvous signalling.
	h.eng.SetRdvThreshold(1 << 30)
	return h
}

// fill queues `pinned` aggregates that only the (busy) low-latency rail can
// ever carry — their size exceeds the fat rail's eager cap, so no weight
// update can move them — spread over destinations 1 and 2, plus `affected`
// small aggregates to destination 3 that the fat rail refuses only because
// its weight is zero. Both gates are closed during the fill, so nothing
// drains; the fat rail's gate opens afterwards, so every later pump scans
// the whole backlog on its behalf.
func (h *retuneHarness) fill(tb testing.TB, pinned, affected int) {
	tb.Helper()
	h.lo.idle.Store(false)
	h.fat.idle.Store(false)
	big := make([]byte, 17*1024) // over fat's 16K eager cap, under lo's 32K
	for i := 0; i < pinned; i++ {
		p := &packet.Packet{
			Flow: 1, Msg: packet.MsgID(i), Src: 0, Dst: packet.NodeID(1 + i%2),
			Class: packet.ClassSmall, Payload: big,
		}
		if err := h.eng.Submit(p); err != nil {
			tb.Fatal(err)
		}
	}
	small := make([]byte, 1024)
	for i := 0; i < affected; i++ {
		p := &packet.Packet{
			Flow: 2, Msg: packet.MsgID(i), Src: 0, Dst: 3,
			Class: packet.ClassSmall, Payload: small,
		}
		if err := h.eng.Submit(p); err != nil {
			tb.Fatal(err)
		}
	}
	// The lo rail stays gated: only what the fat rail admits can post.
	h.fat.idle.Store(true)
	h.eng.Flush()
}

// TestRetuneReoffersWeightRefusedWork is the liveness contract of a weight
// delta: aggregates an idle rail refused only because its weight was zero
// post on that rail when SetRailWeights lifts the weight — the call's own
// pump, no submit, receive or timer behind it — while packets the rail can
// never carry stay queued.
func TestRetuneReoffersWeightRefusedWork(t *testing.T) {
	const pinned, affected = 64, 32
	h := newRetuneHarness(t)
	defer h.eng.Close()
	if !h.eng.SetRailWeights([]float64{1, 0}) {
		t.Fatal("rail policy not weight-tunable")
	}
	carried := 0
	h.fat.onPost = func(f *packet.Frame) {
		for _, en := range f.Entries {
			if en.Flow != 2 {
				t.Errorf("fat rail carried flow %d: a packet over its eager cap", en.Flow)
			}
		}
		carried += len(f.Entries)
	}
	h.fill(t, pinned, affected)
	if n := h.fat.posted.Load(); n != 0 {
		t.Fatalf("fat rail posted %d frames at weight 0", n)
	}

	h.eng.SetRailWeights([]float64{1, 1})
	if h.fat.posted.Load() == 0 {
		t.Fatal("weight delta did not re-offer the refused aggregates to the idle fat rail")
	}
	// Each post is followed by the NIC-idle edge; those drain the rest.
	for i := 0; i < affected && h.eng.BacklogLen() > pinned; i++ {
		h.fat.fn(0)
	}
	if carried != affected || h.eng.BacklogLen() != pinned {
		t.Fatalf("fat rail carried %d of %d refused packets, %d left queued (want %d pinned)",
			carried, affected, h.eng.BacklogLen(), pinned)
	}
	if n := h.lo.posted.Load(); n != 0 {
		t.Fatalf("gated lo rail posted %d frames", n)
	}
}

// TestAllocsRailSchedEligible extends the AllocsPerRun gates to the
// multi-rail bulk placement path: Eligible across every rail and class,
// stripe walk included — one atomic snapshot load each, zero allocations,
// zero locks (DESIGN.md §3.2).
func TestAllocsRailSchedEligible(t *testing.T) {
	rails := []caps.Caps{caps.MX, caps.Elan, caps.Elan}
	for i := range rails {
		rails[i].Name = fmt.Sprintf("r%d", i)
	}
	s := strategy.NewScheduledRail(rails)
	s.SetWeights([]float64{1, 2, 3})
	bulk := &packet.Packet{Class: packet.ClassBulk, Flow: 3, Msg: 5, Seq: 9}
	small := &packet.Packet{Class: packet.ClassSmall, Payload: make([]byte, 1024)}
	sink := false
	allocs := testing.AllocsPerRun(500, func() {
		for ri := 0; ri < len(rails); ri++ {
			info := strategy.RailInfo{Index: ri, Count: len(rails), Caps: rails[ri]}
			sink = s.Eligible(bulk, info) || sink
			sink = s.Eligible(small, info) || sink
		}
		bulk.Seq++
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("multi-rail Eligible/stripe path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsFlapRetune pins the weight delta itself to a small constant
// allocation budget that does not scale with the backlog: the snapshot
// build, the retune event note, and nothing per queued packet (the scan
// runs entirely on reused pump scratch).
func TestAllocsFlapRetune(t *testing.T) {
	h := newRetuneHarness(t)
	defer h.eng.Close()
	h.eng.SetRailWeights([]float64{1, 0})
	h.fill(t, 1024, 64)
	w := [][]float64{{1, 0}, {2, 0}}
	for i := 0; i < 64; i++ { // warm counters, scratch, pools
		h.eng.SetRailWeights(w[i%2])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		i++
		h.eng.SetRailWeights(w[i%2])
	})
	if allocs > 10 {
		t.Fatalf("flap retune allocates %.1f allocs/op with 1k+ packets queued, want <= 10", allocs)
	}
}
