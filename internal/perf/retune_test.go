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

// The flap-storm battery measures what a rail-weight delta costs with a
// deep backlog queued behind busy rails: the incremental re-pump must scale
// with the queues the delta can actually affect (weight-bound refusals),
// not with the total backlog. gatedSink is the instrument — a driver whose
// channel-idle state the test controls, so packets queue without draining
// and a retune's scan cost is the only moving part.

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

// retuneHarness is a 4-shard engine over two gated rails — "lo", the
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
		Shards:  4,
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
// update can move them — spread over shards 1 and 2, plus `affected` small
// aggregates on shard 3 that the fat rail refuses only because its weight
// is zero. Both gates are closed during the fill, so nothing drains; a
// single fat-rail scan afterwards records the refusals the incremental
// re-pump path keys off.
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
	// One full scan of the fat rail observes every refusal and arms the
	// per-shard hints; the lo rail stays gated so nothing posts.
	h.fat.idle.Store(true)
	h.eng.Flush()
}

// TestRetuneRepumpTargeting is the deterministic gate on the tentpole: a
// weight delta re-pumps exactly the shards holding weight-bound refused
// work — zero shards when the backlog is all structurally pinned work, and
// exactly the one affected shard otherwise — counted by the engine's
// core.retune_repumped_shards counter, with no packet drained either way.
func TestRetuneRepumpTargeting(t *testing.T) {
	h := newRetuneHarness(t)
	defer h.eng.Close()
	repumped := func() uint64 {
		return h.eng.Stats().CounterValue("core.retune_repumped_shards")
	}

	// Drain the fat rail before anything is queued, then fill with pinned
	// work only: the scan records no weight-bound refusal anywhere.
	if !h.eng.SetRailWeights([]float64{1, 0}) {
		t.Fatal("rail policy not weight-tunable")
	}
	h.fill(t, 1024, 0)
	before := repumped()
	h.eng.SetRailWeights([]float64{2, 0})
	if got := repumped() - before; got != 0 {
		t.Fatalf("pinned-only backlog: delta re-pumped %d shards, want 0", got)
	}

	// Add weight-refused work on one shard; its refusals were recorded by
	// fill's seed scan, so the next delta re-pumps exactly that shard.
	h.fill(t, 0, 256)
	before = repumped()
	h.eng.SetRailWeights([]float64{3, 0})
	if got := repumped() - before; got != 1 {
		t.Fatalf("one affected shard: delta re-pumped %d shards, want 1", got)
	}
	// The refused scan re-observed the refusals (weights kept the fat rail
	// drained), so the hint re-arms and the next delta re-pumps it again.
	before = repumped()
	h.eng.SetRailWeights([]float64{4, 0})
	if got := repumped() - before; got != 1 {
		t.Fatalf("re-armed hint: delta re-pumped %d shards, want 1", got)
	}
	if n := h.eng.BacklogLen(); n != 1024+256 {
		t.Fatalf("backlog drained during retunes: %d packets left, want %d", n, 1024+256)
	}
}

// TestAllocsRailSchedEligible extends the AllocsPerRun gates to the
// multi-rail bulk placement path: Eligible across every rail and class plus
// the BulkRail stripe walk — one atomic snapshot load each, zero
// allocations, zero locks (DESIGN.md §3.2).
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
		sink = s.BulkRail(bulk, len(rails)) >= 0 || sink
		bulk.Seq++
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("multi-rail Eligible/stripe path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsFlapRetune pins the weight delta itself to a small constant
// allocation budget that does not scale with the backlog: the snapshot
// build, the retune event note, and nothing per queued packet (the refused
// scan runs entirely on reused shard scratch).
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

// BenchmarkFlapStormRetune measures one rail-weight delta against a gated
// backlog, across (total backlog, affected queue) sizes. The incremental
// re-pump contract is visible as flat ns/op in the backlog dimension and
// linear ns/op only in the affected dimension; before the fix every delta
// paid a full pumpAll sweep of all queues.
func BenchmarkFlapStormRetune(b *testing.B) {
	for _, backlog := range []int{1024, 4096} {
		for _, affected := range []int{0, 256} {
			b.Run(fmt.Sprintf("backlog=%d/affected=%d", backlog, affected), func(b *testing.B) {
				h := newRetuneHarness(b)
				defer h.eng.Close()
				h.eng.SetRailWeights([]float64{1, 0})
				h.fill(b, backlog, affected)
				w := [][]float64{{1, 0}, {2, 0}}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.eng.SetRailWeights(w[i%2])
				}
			})
		}
	}
}
