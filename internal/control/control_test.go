package control

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// simPair builds a 2-node simulated cluster with an engine per node and
// returns the cluster and the sender engine.
func simPair(t *testing.T) (*drivers.Cluster, *core.Engine) {
	t.Helper()
	return simPairQuotas(t, nil)
}

// simPairQuotas is simPair with quotas as the sender's admission table.
func simPairQuotas(t *testing.T, quotas map[packet.TenantID]core.TenantQuota) (*drivers.Cluster, *core.Engine) {
	t.Helper()
	prof := caps.MX
	prof.Channels = 1
	cl, err := drivers.NewCluster(2, prof)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*core.Engine, 2)
	for n := 0; n < 2; n++ {
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		var rails []drivers.Driver
		for _, d := range cl.NodeDrivers(packet.NodeID(n)) {
			rails = append(rails, d)
		}
		o := core.Options{
			Bundle:  b,
			Runtime: cl.Eng,
			Rails:   rails,
			Deliver: func(proto.Deliverable) {},
		}
		if n == 0 {
			o.Quotas = quotas
		}
		eng, err := core.New(packet.NodeID(n), o)
		if err != nil {
			t.Fatal(err)
		}
		engines[n] = eng
	}
	return cl, engines[0]
}

// TestApplyPreservesTunableRailPolicy pins the topology/regime split: the
// multi-rail scheduler (built from the node's physical rail records) must
// survive Apply's bundle swap rather than be replaced by the registry
// bundle's default policy, which knows nothing of the node's rails. Any
// other rail policy is replaced by the tuning's bundle as usual.
func TestApplyPreservesTunableRailPolicy(t *testing.T) {
	_, eng := simPair(t)
	sched := strategy.NewScheduledRail([]caps.Caps{caps.MX})
	b := eng.Bundle()
	b.Rail = sched
	if err := eng.SetBundle(b); err != nil {
		t.Fatal(err)
	}
	tune, err := strategy.TuningByName("throughput")
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(eng, tune); err != nil {
		t.Fatal(err)
	}
	if got := eng.Bundle().Rail; got != strategy.RailPolicy(sched) {
		t.Fatalf("bundle swap evicted the rail scheduler: now %T", got)
	}
	// Any other policy is the bundle's to replace: the registry bundle's
	// own rail policy takes over.
	b = eng.Bundle()
	b.Rail = strategy.PinnedRail{}
	if err := eng.SetBundle(b); err != nil {
		t.Fatal(err)
	}
	if err := Apply(eng, tune); err != nil {
		t.Fatal(err)
	}
	reg, err := strategy.New(tune.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Bundle().Rail; got != reg.Rail {
		t.Fatalf("rail policy after Apply = %T %v, want the registry bundle's %T %v", got, got, reg.Rail, reg.Rail)
	}
}

// TestApplyReadsBackEveryTuning: for every registered tuning, Apply leaves
// the engine at exactly that operating point as Metrics reports it (a flush
// count of 0 reads back as core.DefaultNagleFlushCount).
func TestApplyReadsBackEveryTuning(t *testing.T) {
	_, eng := simPair(t)
	for _, name := range strategy.TuningNames() {
		tune, err := strategy.TuningByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := Apply(eng, tune); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := tune.Knobs
		if want.NagleFlushCount == 0 {
			want.NagleFlushCount = core.DefaultNagleFlushCount
		}
		if m := eng.Metrics(); m.Knobs != want || m.Bundle != tune.Bundle {
			t.Fatalf("%s: engine at %+v bundle %q, want %+v bundle %q", name, m.Knobs, m.Bundle, want, tune.Bundle)
		}
	}
}

// TestApplyIsOneKnobSwap: a retune whose knobs move emits exactly one
// "tuning" RetuneEvent, and applying the same tuning again emits none.
func TestApplyIsOneKnobSwap(t *testing.T) {
	_, eng := simPair(t)
	var tunings []core.RetuneEvent
	eng.SetRetuneObserver(func(ev core.RetuneEvent) {
		if ev.Knob == "tuning" {
			tunings = append(tunings, ev)
		}
	})
	thr, err := strategy.TuningByName("throughput")
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(eng, thr); err != nil {
		t.Fatal(err)
	}
	if len(tunings) != 1 {
		t.Fatalf("first Apply emitted %d tuning events %v, want 1", len(tunings), tunings)
	}
	if note := tunings[0].Note; !strings.Contains(note, "nagle=16µs") || !strings.Contains(note, "budget=32") {
		t.Fatalf("tuning event note %q does not list the knobs that moved", note)
	}
	if err := Apply(eng, thr); err != nil {
		t.Fatal(err)
	}
	if len(tunings) != 1 {
		t.Fatalf("repeated Apply emitted %d more tuning events, want none", len(tunings)-1)
	}
}

func TestControllerOptionDefaultsAndValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Fatal("New without engine should fail")
	}
	cl, eng := simPair(t)
	if _, err := New(Options{Engine: eng}); err == nil {
		t.Fatal("New without runtime should fail")
	}
	if _, err := New(Options{Engine: eng, Runtime: cl.Eng, HiRate: 100, LoRate: 200}); err == nil {
		t.Fatal("inverted rate band should fail")
	}
	if _, err := New(Options{Engine: eng, Runtime: cl.Eng, Tunings: map[Mode]string{ModeLatency: "no-such"}}); err == nil {
		t.Fatal("unknown tuning should fail")
	}
	c, err := New(Options{Engine: eng, Runtime: cl.Eng})
	if err != nil {
		t.Fatal(err)
	}
	if c.mode != ModeBalanced {
		t.Fatalf("default initial mode = %s, want balanced", c.mode)
	}
}

// TestControllerTracksRegimes drives a sparse phase then a dense phase
// through a live simulated engine and asserts the controller's closed loop:
// it settles on the latency tuning under sparse traffic, switches to the
// throughput tuning when the arrival rate crosses the band, never thrashes
// in between, and spaces retunes by at least the cooldown.
func TestControllerTracksRegimes(t *testing.T) {
	cl, eng := simPair(t)
	rec := trace.New(512)
	cooldown := 300 * simnet.Microsecond
	c, err := New(Options{
		Engine:   eng,
		Runtime:  cl.Eng,
		Interval: 10 * simnet.Microsecond,
		Confirm:  3,
		Cooldown: cooldown,
		HiRate:   1e6,
		LoRate:   400e3,
		Trace:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("double Start should fail")
	}

	submit := func(flow packet.FlowID, seq int) func() {
		return func() {
			p := &packet.Packet{
				Flow: flow, Msg: packet.MsgID(seq), Seq: seq, Last: true,
				Src: 0, Dst: 1, Class: packet.ClassSmall,
				Payload: make([]byte, 64),
			}
			if err := eng.Submit(p); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	}
	// Sparse phase: one small packet every 50 µs for 1 ms (20 k/s).
	for i := 0; i < 20; i++ {
		cl.Eng.At(simnet.Time(i)*simnet.Time(50*simnet.Microsecond), "sparse", submit(1, i))
	}
	// Dense phase from t=1 ms: 8 packets every 4 µs for 1 ms (2 M/s).
	dense := simnet.Time(1 * simnet.Millisecond)
	seq := 0
	for i := 0; i < 250; i++ {
		at := dense + simnet.Time(i)*simnet.Time(4*simnet.Microsecond)
		for j := 0; j < 8; j++ {
			cl.Eng.At(at, "dense", submit(2, seq))
			seq++
		}
	}

	// Stop shortly after the dense phase ends — before the rate EWMA decays
	// back through the band (that flip-back is itself correct behaviour,
	// exercised by the cooldown test below).
	cl.Eng.RunUntil(simnet.Time(2050 * simnet.Microsecond))
	c.Stop()

	ds := c.Decisions()
	if len(ds) != 2 {
		t.Fatalf("decisions = %d (%v), want exactly 2 (balanced→latency, latency→throughput)", len(ds), ds)
	}
	if Mode(ds[0].To) != ModeLatency || Mode(ds[0].From) != ModeBalanced {
		t.Fatalf("first decision %v, want balanced→latency", ds[0])
	}
	if Mode(ds[1].To) != ModeThroughput {
		t.Fatalf("second decision %v, want →throughput", ds[1])
	}
	if gap := ds[1].At.Sub(ds[0].At); gap < cooldown {
		t.Fatalf("retunes %v apart, cooldown is %v", gap, cooldown)
	}
	if ds[1].Evidence.ArrivalPerSec < 1e6 {
		t.Fatalf("throughput decision carries weak evidence: %s", ds[1].Evidence)
	}
	if c.mode != ModeThroughput {
		t.Fatalf("final mode = %s, want throughput", c.mode)
	}
	// The engine must actually be at the throughput operating point.
	m := eng.Metrics()
	thr, _ := strategy.TuningByName("throughput")
	if m.NagleDelay != thr.NagleDelay || m.Lookahead != thr.Lookahead {
		t.Fatalf("engine tuning (nagle=%v lookahead=%d) does not match throughput (%v, %d)",
			m.NagleDelay, m.Lookahead, thr.NagleDelay, thr.Lookahead)
	}
	// Every decision must be on the trace as a policy event.
	ctl := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindPolicy && strings.HasPrefix(ev.Note, "ctl") {
			ctl++
		}
	}
	if ctl != len(ds) {
		t.Fatalf("trace has %d controller policy events, want %d", ctl, len(ds))
	}
}

// TestControllerCooldownBounds confirms the damping guarantee directly: with
// an enormous cooldown, a second regime change is recognized but not
// applied.
func TestControllerCooldownBounds(t *testing.T) {
	cl, eng := simPair(t)
	set := &stats.Set{}
	c, err := New(Options{
		Engine:   eng,
		Runtime:  cl.Eng,
		Interval: 10 * simnet.Microsecond,
		Confirm:  2,
		Cooldown: 50 * simnet.Millisecond, // far beyond the run
		HiRate:   1e6,
		LoRate:   400e3,
		Stats:    set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	seq := 0
	// Dense burst to force balanced→throughput, then silence (which reads
	// as latency) — only the first switch may apply.
	for i := 0; i < 100; i++ {
		at := simnet.Time(i) * simnet.Time(4*simnet.Microsecond)
		for j := 0; j < 8; j++ {
			s := seq
			cl.Eng.At(at, "burst", func() {
				p := &packet.Packet{
					Flow: 1, Msg: packet.MsgID(s), Seq: s, Last: true,
					Src: 0, Dst: 1, Class: packet.ClassSmall,
					Payload: make([]byte, 64),
				}
				if err := eng.Submit(p); err != nil {
					t.Errorf("submit: %v", err)
				}
			})
			seq++
		}
	}
	cl.Eng.RunUntil(simnet.Time(3 * simnet.Millisecond))
	c.Stop()

	if n := len(c.Decisions()); n != 1 {
		t.Fatalf("retunes = %d (%v), want 1 (cooldown must suppress the flip back)", n, c.Decisions())
	}
	if set.CounterValue("control.cooldown_blocks") == 0 {
		t.Fatal("cooldown suppressed nothing, yet only one retune applied")
	}
}

// TestControllerStopIsFinal verifies a stopped controller neither samples
// nor restarts.
func TestControllerStopIsFinal(t *testing.T) {
	cl, eng := simPair(t)
	set := &stats.Set{}
	c, err := New(Options{Engine: eng, Runtime: cl.Eng, Stats: set})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Stop()
	before := set.CounterValue("control.samples")
	cl.Eng.RunUntil(simnet.Time(1 * simnet.Millisecond))
	if after := set.CounterValue("control.samples"); after != before {
		t.Fatalf("stopped controller still sampling: %d → %d", before, after)
	}
	if err := c.Start(); err == nil {
		t.Fatal("restarting a stopped controller should fail")
	}
}

// TestControllerStopWaitsOutStart: Stop's guarantee covers Start too. A
// Stop issued while Start is inside its engine writes (here, parked in the
// retune observer on its first one) returns only after Start's last write,
// so no write lands after Stop returned.
func TestControllerStopWaitsOutStart(t *testing.T) {
	cl, eng := simPair(t)
	fifo, err := strategy.New("fifo")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetBundle(fifo); err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Engine: eng, Runtime: cl.Eng})
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		stopped bool
		late    []string
		once    sync.Once
	)
	entered, release := make(chan struct{}), make(chan struct{})
	eng.SetRetuneObserver(func(ev core.RetuneEvent) {
		mu.Lock()
		if stopped {
			late = append(late, ev.Knob)
		}
		mu.Unlock()
		once.Do(func() {
			close(entered)
			<-release
		})
	})
	started := make(chan error, 1)
	go func() { started <- c.Start() }()
	<-entered
	stopDone := make(chan struct{})
	go func() {
		c.Stop()
		mu.Lock()
		stopped = true
		mu.Unlock()
		close(stopDone)
	}()
	// Give a Stop that does not wait time to return; one that waits
	// cannot return before release, however long this is.
	select {
	case <-stopDone:
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-stopDone
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(late) > 0 {
		t.Fatalf("engine written after Stop returned: %v", late)
	}
}

// TestControllerQuotaLoopAdoptsEngineTable: the quota loop's nominal points
// are the engine's own quota table at Start. A rate-limited flooder is
// demoted within one Interval of its flood; a tenant without a rate stays
// outside the loop; and every quota write is one "ctl tenant" trace note
// and one core.tenant_retunes count.
func TestControllerQuotaLoopAdoptsEngineTable(t *testing.T) {
	const flooder, free = packet.TenantID(1), packet.TenantID(2)
	nominal := core.TenantQuota{Rate: 50e3, Burst: 32, Backlog: 256}
	cl, eng := simPairQuotas(t, map[packet.TenantID]core.TenantQuota{
		flooder: nominal,
		free:    {Rate: 0, Backlog: 512},
	})
	rec := trace.New(1024)
	interval := 250 * simnet.Microsecond
	c, err := New(Options{Engine: eng, Runtime: cl.Eng, Interval: interval, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	retunes0 := eng.Metrics().TenantRetunes
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	seq := map[packet.FlowID]int{}
	submit := func(flow packet.FlowID, tenant packet.TenantID) func() {
		return func() {
			p := &packet.Packet{
				Flow: flow, Msg: packet.MsgID(seq[flow]), Seq: seq[flow], Last: true,
				Src: 0, Dst: 1, Class: packet.ClassSmall, Tenant: tenant,
				Payload: make([]byte, 64),
			}
			switch err := eng.Submit(p); {
			case err == nil:
				seq[flow]++
			case !errors.Is(err, core.ErrThrottled) && !errors.Is(err, core.ErrQuotaExceeded):
				t.Errorf("submit: %v", err)
			}
		}
	}
	// Both tenants at 50k pps throughout; from onset the flooder offers
	// 500k pps, 10× its rate, for 1 ms.
	onset := simnet.Time(1010 * simnet.Microsecond)
	for i := 0; i < 150; i++ {
		at := simnet.Time(i) * simnet.Time(20*simnet.Microsecond)
		cl.Eng.At(at, "steady", submit(1, flooder))
		cl.Eng.At(at, "steady", submit(2, free))
	}
	for i := 0; i < 500; i++ {
		cl.Eng.At(onset+simnet.Time(i)*simnet.Time(2*simnet.Microsecond), "flood", submit(1, flooder))
	}

	cl.Eng.RunUntil(onset.Add(interval))
	if r, ok := c.TenantRate(flooder); !ok || r >= nominal.Rate {
		t.Fatalf("flooder rate %.0f (controlled=%v) one interval after onset, want below nominal %.0f", r, ok, nominal.Rate)
	}
	if r, ok := c.TenantRate(free); ok || r != 0 {
		t.Fatalf("rate-0 tenant: TenantRate = (%.0f, %v), want (0, false)", r, ok)
	}
	cl.Eng.RunUntil(simnet.Time(5 * simnet.Millisecond))
	c.Stop()

	notes := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindPolicy && strings.HasPrefix(ev.Note, "ctl tenant") {
			notes++
		}
	}
	if d := eng.Metrics().TenantRetunes - retunes0; notes == 0 || uint64(notes) != d {
		t.Fatalf("%d ctl tenant notes on the trace, engine counted %d tenant retunes since Start", notes, d)
	}
}
