package chaos

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// fakeDriver is a minimal in-memory Driver whose Deliver method plays the
// role of the fabric: whatever the test feeds in arrives at the installed
// recv handler (through the injector, when wrapped).
type fakeDriver struct {
	mu     sync.Mutex
	onRecv drivers.RecvFunc
	posted []*packet.Frame
	closed bool
}

func (d *fakeDriver) Name() string                    { return "fake@n1" }
func (d *fakeDriver) Node() packet.NodeID             { return 1 }
func (d *fakeDriver) Caps() caps.Caps                 { return caps.TCP }
func (d *fakeDriver) Mem() memsim.Model               { return memsim.DefaultModel() }
func (d *fakeDriver) NumChannels() int                { return 2 }
func (d *fakeDriver) ChannelIdle(ch int) bool         { return true }
func (d *fakeDriver) FirstIdle() (int, bool)          { return 0, true }
func (d *fakeDriver) SetIdleHandler(drivers.IdleFunc) {}
func (d *fakeDriver) SetRecvHandler(fn drivers.RecvFunc) {
	d.mu.Lock()
	d.onRecv = fn
	d.mu.Unlock()
}
func (d *fakeDriver) Post(ch int, f *packet.Frame, _ simnet.Duration) error {
	d.mu.Lock()
	d.posted = append(d.posted, f)
	d.mu.Unlock()
	return nil
}
func (d *fakeDriver) Close() error {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	return nil
}
func (d *fakeDriver) Deliver(src packet.NodeID, f *packet.Frame) {
	d.mu.Lock()
	h := d.onRecv
	d.mu.Unlock()
	if h != nil {
		h(src, f)
	}
}

func dataFrame(seq int) *packet.Frame {
	return &packet.Frame{
		Kind: packet.FrameData, Src: 0, Dst: 1,
		Entries: []packet.Entry{{Flow: 1, Msg: 1, Seq: seq, Payload: []byte{byte(seq)}}},
	}
}

// TestInjectorDropDeterministic: the same seed over the same frame
// sequence drops the same frames.
func TestInjectorDropDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		fd := &fakeDriver{}
		inj, err := NewInjector(fd, simnet.NewRealRuntime(), simnet.NewRNG(seed), Rule{Kind: Drop, Prob: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
			got = append(got, f.Entries[0].Seq)
		})
		for i := 0; i < 200; i++ {
			fd.Deliver(0, dataFrame(i))
		}
		if inj.Injected(Drop) == 0 {
			t.Fatal("nothing dropped at p=0.3 over 200 frames")
		}
		if len(got)+int(inj.Injected(Drop)) != 200 {
			t.Fatalf("accounting: %d delivered + %d dropped != 200", len(got), inj.Injected(Drop))
		}
		return got
	}
	seed := testSeed(t, 7)
	a, b := run(seed), run(seed)
	if len(a) != len(b) {
		t.Fatalf("same seed, different survivor counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at survivor %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(seed + 1)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical drop pattern (astronomically unlikely)")
	}
}

// TestInjectorKindFilter: a drop rule scoped to RTS frames never touches
// data frames.
func TestInjectorKindFilter(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRealRuntime(), simnet.NewRNG(3),
		Rule{Kind: Drop, Prob: 1.0, Frames: []packet.FrameKind{packet.FrameRTS}})
	if err != nil {
		t.Fatal(err)
	}
	var data, rts int
	inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		switch f.Kind {
		case packet.FrameData:
			data++
		case packet.FrameRTS:
			rts++
		}
	})
	for i := 0; i < 10; i++ {
		fd.Deliver(0, dataFrame(i))
		fd.Deliver(0, &packet.Frame{Kind: packet.FrameRTS, Src: 0, Dst: 1,
			Ctrl: packet.Ctrl{Token: uint64(i + 1), Size: 10}})
	}
	if data != 10 {
		t.Fatalf("data frames delivered: %d of 10 (filter leaked)", data)
	}
	if rts != 0 {
		t.Fatalf("RTS frames delivered: %d of 0 wanted (p=1 drop)", rts)
	}
	if inj.Injected(Drop) != 10 {
		t.Fatalf("drops = %d, want 10", inj.Injected(Drop))
	}
}

// TestInjectorDelayAndReorderLoseNothing: timing faults shuffle arrival,
// never lose or duplicate.
func TestInjectorDelayAndReorderLoseNothing(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRealRuntime(), simnet.NewRNG(11),
		Rule{Kind: Delay, Prob: 0.2, Delay: 2 * time.Millisecond},
		Rule{Kind: Reorder, Prob: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int]int{}
	inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
		mu.Lock()
		got[f.Entries[0].Seq]++
		mu.Unlock()
	})
	const n = 300
	for i := 0; i < n; i++ {
		fd.Deliver(0, dataFrame(i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		c := len(got)
		mu.Unlock()
		if c == n {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("delivered %d of %d distinct frames", len(got), n)
	}
	for seq, c := range got {
		if c != 1 {
			t.Fatalf("seq %d delivered %d times", seq, c)
		}
	}
	if inj.Injected(Delay)+inj.Injected(Reorder) == 0 {
		t.Fatal("no timing faults fired at p=0.4 over 300 frames")
	}
}

// TestInjectorCloseFlushesHeld: a frame parked in the reorder slot at
// Close still arrives — close is not a fault.
func TestInjectorCloseFlushesHeld(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRealRuntime(), simnet.NewRNG(5), Rule{Kind: Reorder, Prob: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	delivered := 0
	inj.SetRecvHandler(func(packet.NodeID, *packet.Frame) {
		mu.Lock()
		delivered++
		mu.Unlock()
	})
	fd.Deliver(0, dataFrame(0)) // held in the reorder slot
	if err := inj.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Fatalf("held frame deliveries at close = %d, want 1", delivered)
	}
	if !fd.closed {
		t.Fatal("inner driver not closed")
	}
}

// TestInjectorCorruptCounts: corruption either mangles the decoded frame
// or destroys the framing; both count, neither panics.
func TestInjectorCorruptCounts(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRealRuntime(), simnet.NewRNG(9), Rule{Kind: Corrupt, Prob: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	inj.SetRecvHandler(func(packet.NodeID, *packet.Frame) { survivors++ })
	const n = 50
	for i := 0; i < n; i++ {
		fd.Deliver(0, dataFrame(i))
	}
	if inj.Injected(Corrupt) != n {
		t.Fatalf("corruptions = %d, want %d", inj.Injected(Corrupt), n)
	}
	if survivors > n {
		t.Fatalf("corruption multiplied frames: %d survivors of %d", survivors, n)
	}
}

// TestRollingFlapsDeterministic: the generator is a pure function of
// (seed, config), and validation catches malformed scripts.
func TestRollingFlapsDeterministic(t *testing.T) {
	cfg := FlapConfig{Nodes: 3, Rails: 2, Flaps: 20,
		Every: 10 * time.Millisecond, DownFor: 4 * time.Millisecond}
	seed := testSeed(t, 42)
	a, err := RollingFlaps(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RollingFlaps(seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != 40 || len(b.Events) != 40 {
		t.Fatalf("event counts: %d, %d (want 40: down+heal per flap)", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed diverges at event %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	c, err := RollingFlaps(seed+1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds generated the identical scenario")
	}
	// Every down has a heal for the same edge, later.
	for i := 0; i < len(a.Events); i += 2 {
		d, h := a.Events[i], a.Events[i+1]
		if d.Op != OpRailDown || h.Op != OpRailHeal {
			t.Fatalf("pair %d: ops %v, %v", i/2, d.Op, h.Op)
		}
		if d.Node != h.Node || d.Peer != h.Peer || d.Rail != h.Rail || h.At <= d.At {
			t.Fatalf("pair %d mismatched: %v / %v", i/2, d, h)
		}
	}
	if err := a.Validate(3, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(2, 2); err == nil {
		t.Fatal("script targeting node 2 validated against a 2-node cluster")
	}
}

// TestTraceDiff: traces compare event-for-event with a readable first
// divergence.
func TestTraceDiff(t *testing.T) {
	var a, b Trace
	e1 := Event{At: time.Millisecond, Op: OpRailDown, Node: 0, Peer: 1, Rail: 0}
	e2 := Event{At: 2 * time.Millisecond, Op: OpRailHeal, Node: 0, Peer: 1, Rail: 0}
	a.Record(e1)
	a.Record(e2)
	b.Record(e1)
	b.Record(e2)
	if !a.Equal(&b) {
		t.Fatalf("identical traces diff: %s", a.Diff(&b))
	}
	b.Record(Event{At: 3 * time.Millisecond, Op: OpCrash, Node: 2})
	if a.Equal(&b) {
		t.Fatal("diverging traces compared equal")
	}
	if d := a.Diff(&b); d == "" {
		t.Fatal("no divergence reported")
	}
}

// lateRuntime is a Runtime whose timers can never be stopped: every cancel
// reports "too late", and the callbacks run when the test fires them. It
// plays the wall clock at its worst — a release timer that has fired but not
// yet taken the injector lock — deterministically.
type lateRuntime struct {
	fns []func()
}

func (r *lateRuntime) Now() simnet.Time { return 0 }

func (r *lateRuntime) Schedule(_ simnet.Duration, _ string, fn func()) simnet.CancelFunc {
	r.fns = append(r.fns, fn)
	return func() bool { return false }
}

func (r *lateRuntime) fire() {
	fns := r.fns
	r.fns = nil
	for _, fn := range fns {
		fn()
	}
}

// TestInjectorReorderNeverLosesToALateTimer: when a held frame's fallback
// timer cannot be stopped any more, the frame must still arrive exactly once
// — whether a second Reorder displaces it, an unfaulted frame overtakes it,
// or Close flushes it. (It used to vanish: the displacer trusted the timer
// to deliver, and the timer, finding itself displaced, discarded.)
func TestInjectorReorderNeverLosesToALateTimer(t *testing.T) {
	rts := func(tok int) *packet.Frame {
		return &packet.Frame{Kind: packet.FrameRTS, Src: 0, Dst: 1, Ctrl: packet.Ctrl{Token: uint64(tok), Size: 10}}
	}
	id := func(f *packet.Frame) int {
		if f.Kind == packet.FrameRTS {
			return int(f.Ctrl.Token)
		}
		return f.Entries[0].Seq
	}
	cases := []struct {
		name string
		run  func(fd *fakeDriver, inj *Injector)
		want []int
	}{
		{"displaced by a second reorder", func(fd *fakeDriver, _ *Injector) {
			fd.Deliver(0, rts(1))
			fd.Deliver(0, rts(2))
		}, []int{1, 2}},
		{"overtaken by an unfaulted frame", func(fd *fakeDriver, _ *Injector) {
			fd.Deliver(0, rts(1))
			fd.Deliver(0, dataFrame(2))
		}, []int{2, 1}},
		{"flushed by close", func(fd *fakeDriver, inj *Injector) {
			fd.Deliver(0, rts(1))
			fd.Deliver(2, rts(2)) // another source: its own slot
			if err := inj.Close(); err != nil {
				t.Fatal(err)
			}
		}, []int{1, 2}},
	}
	for _, c := range cases {
		rt := &lateRuntime{}
		fd := &fakeDriver{}
		inj, err := NewInjector(fd, rt, simnet.NewRNG(5),
			Rule{Kind: Reorder, Prob: 1.0, Frames: []packet.FrameKind{packet.FrameRTS}})
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) { got = append(got, id(f)) })
		c.run(fd, inj)
		rt.fire() // every timer the injector tried to stop runs anyway
		rt.fire() // and so do the ones armed since
		if len(got) != len(c.want) {
			t.Errorf("%s: delivered %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: delivered %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

// TestInjectorVirtualClockReplay: on the discrete-event engine the timing
// faults are events like any other, so the same seed over the same arrivals
// yields the same delivery order at the same virtual instants — which no
// run could say while holds rode wall timers.
func TestInjectorVirtualClockReplay(t *testing.T) {
	type arrival struct {
		seq int
		at  simnet.Time
	}
	run := func(seed uint64) []arrival {
		eng := simnet.NewEngine()
		fd := &fakeDriver{}
		inj, err := NewInjector(fd, eng, simnet.NewRNG(seed),
			Rule{Kind: Delay, Prob: 0.3, Delay: 40 * time.Microsecond},
			Rule{Kind: Reorder, Prob: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		var got []arrival
		inj.SetRecvHandler(func(_ packet.NodeID, f *packet.Frame) {
			got = append(got, arrival{f.Entries[0].Seq, eng.Now()})
		})
		for i := 0; i < 200; i++ {
			i := i
			eng.After(simnet.Duration(i)*10*simnet.Microsecond, "arrive", func() { fd.Deliver(0, dataFrame(i)) })
		}
		eng.Run()
		if len(got) != 200 {
			t.Fatalf("delivered %d of 200 frames", len(got))
		}
		if inj.Injected(Delay) == 0 || inj.Injected(Reorder) == 0 {
			t.Fatalf("faults fired: %d delays, %d reorders", inj.Injected(Delay), inj.Injected(Reorder))
		}
		return got
	}
	seed := testSeed(t, 21)
	a, b := run(seed), run(seed)
	inOrder := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].seq != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("timing faults fired but arrival order is untouched")
	}
}

// TestInjectorLinkGate: a peer held down refuses posts with ErrPeerDown,
// reads as down, and fires the peer-down handler once per up→down
// transition; other peers and the receive path are untouched.
func TestInjectorLinkGate(t *testing.T) {
	fd := &fakeDriver{}
	inj, err := NewInjector(fd, simnet.NewRealRuntime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var downs []packet.NodeID
	inj.SetPeerDownHandler(func(p packet.NodeID) { downs = append(downs, p) })
	to := func(dst packet.NodeID) *packet.Frame {
		return &packet.Frame{Kind: packet.FrameData, Src: 1, Dst: dst}
	}

	inj.SetPeerDown(0, true)
	inj.SetPeerDown(0, true) // already down: no second event
	if err := inj.Post(0, to(0), 0); !errors.Is(err, drivers.ErrPeerDown) {
		t.Fatalf("post toward a down peer: %v, want ErrPeerDown", err)
	}
	if err := inj.Post(0, to(2), 0); err != nil {
		t.Fatalf("post toward an up peer: %v", err)
	}
	if !inj.PeerDown(0) || inj.PeerDown(2) {
		t.Fatalf("PeerDown: n0=%v n2=%v, want true false", inj.PeerDown(0), inj.PeerDown(2))
	}
	inj.SetPeerDown(0, false)
	if err := inj.Post(0, to(0), 0); err != nil || inj.PeerDown(0) {
		t.Fatalf("after heal: post %v, down %v", err, inj.PeerDown(0))
	}
	inj.SetPeerDown(0, true)
	if len(downs) != 2 || downs[0] != 0 || downs[1] != 0 {
		t.Fatalf("peer-down events %v, want one per up→down transition (2)", downs)
	}
	if len(fd.posted) != 2 {
		t.Fatalf("%d frames reached the rail, want 2 (the gated post must not)", len(fd.posted))
	}
}

// recFabric records the actions Apply asks of a fabric.
type recFabric struct {
	rails   int
	mendErr error
	log     []string
}

func (f *recFabric) Rails() int { return f.rails }
func (f *recFabric) Sever(a, b, rail int) {
	f.log = append(f.log, fmt.Sprintf("sever %d-%d/%d", a, b, rail))
}
func (f *recFabric) Mend(a, b, rail int) error {
	f.log = append(f.log, fmt.Sprintf("mend %d-%d/%d", a, b, rail))
	return f.mendErr
}
func (f *recFabric) Flush(n int) { f.log = append(f.log, fmt.Sprintf("flush %d", n)) }
func (f *recFabric) Crash(n int) { f.log = append(f.log, fmt.Sprintf("crash %d", n)) }

// TestApplyOpSemantics pins what each op means, once for every tier: a
// partition is every rail, a heal mends then flushes both engines, a crash
// has no heal, and a failed mend surfaces before any flush.
func TestApplyOpSemantics(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Op: OpRailDown, Node: 1, Peer: 2, Rail: 1}, "sever 1-2/1"},
		{Event{Op: OpRailHeal, Node: 1, Peer: 2, Rail: 1}, "mend 1-2/1, flush 1, flush 2"},
		{Event{Op: OpPartition, Node: 0, Peer: 2, Rail: 7}, "sever 0-2/0, sever 0-2/1"},
		{Event{Op: OpHeal, Node: 0, Peer: 2}, "mend 0-2/0, mend 0-2/1, flush 0, flush 2"},
		{Event{Op: OpCrash, Node: 2, Peer: 9}, "crash 2"},
	}
	for _, c := range cases {
		fab := &recFabric{rails: 2}
		if err := Apply(fab, c.e); err != nil {
			t.Fatalf("%v: %v", c.e, err)
		}
		if got := strings.Join(fab.log, ", "); got != c.want {
			t.Errorf("%v: actions %q, want %q", c.e, got, c.want)
		}
	}
	boom := errors.New("dial refused")
	fab := &recFabric{rails: 2, mendErr: boom}
	if err := Apply(fab, Event{Op: OpHeal, Node: 0, Peer: 1}); !errors.Is(err, boom) {
		t.Fatalf("failed mend: error %v", err)
	}
	if got := strings.Join(fab.log, ", "); got != "mend 0-1/0" {
		t.Fatalf("after a failed mend: actions %q", got)
	}
}
