// Package chaos is the repository's deterministic fault-injection layer:
// it wraps transfer-layer drivers in frame-level fault injectors and
// describes connection-level failure scenarios as seed-replayable scripts,
// so every resilience property the engine claims — failover, rendezvous
// retry, exactly-once delivery — is tested against faults that can be
// reproduced event-for-event from a single seed.
//
// Two mechanisms, two fault granularities:
//
//   - An Injector wraps one drivers.Driver (one rail) on either clock. On
//     the receive path it applies probabilistic per-frame Rules: drop,
//     corrupt, delay, reorder; on the send path its link gate refuses posts
//     toward a peer a script has cut off. Receive-side injection never
//     disturbs the send-unit accounting the optimizer depends on; holds
//     are scheduled on the rail's simnet.Runtime, and the decision stream
//     is drawn from an explicitly seeded simnet.RNG — deterministic per
//     *frame arrival sequence*. Under the discrete-event engine that
//     sequence is itself a function of the seed, so every fault kind
//     replays event-for-event (the emulated testnets run this injector).
//     Over a wall-clock transport with several concurrent sources, arrival
//     interleaving (and so the per-frame fault pattern) varies run to run;
//     there only the scripted schedule below is replayable bit-for-bit.
//   - A Script is a timed list of connection-level events — rail flaps,
//     node-pair partitions, node crashes, heals — generated
//     deterministically from a seed (e.g. RollingFlaps). Apply is the one
//     place an event turns into actions, over the small Fabric each tier
//     implements; the runners (cluster.RunScript on the wall clock,
//     testnet on the virtual one) only pace the events and record each
//     executed one into a Trace. Two runs from the same seed produce
//     identical traces; the socket chaos soak asserts its trace equals
//     the seed's script.
//
// The fault taxonomy is honest about recoverability (DESIGN.md §3.3):
// delays, reorders, flaps, partitions and control-frame drops are fully
// recoverable — the engine's failover queue, rendezvous retry, and the
// reassembler's sequence-number dedupe turn them back into exactly-once
// delivery. Silent drops and corruptions of *data* frames model faults no
// transport layer can undo without an end-to-end retransmit protocol;
// tests inject them to prove graceful degradation (no wedge, no panic, no
// duplicate), not delivery.
package chaos

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/memsim"
	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// FaultKind enumerates the frame-level faults an Injector can apply.
type FaultKind uint8

const (
	// Drop discards the frame on arrival.
	Drop FaultKind = iota
	// Corrupt flips random bits in the frame's wire encoding before
	// decoding it again: one that no longer decodes is dropped, one that
	// still decodes arrives damaged — the protocol layer rejects
	// *structural* damage (size mismatches, unknown tokens), while a
	// payload-bit flip is delivered corrupted, since the wire format
	// carries no checksum. Both outcomes are counted.
	Corrupt
	// Delay holds the frame for the rule's Delay before delivering it.
	Delay
	// Reorder holds the frame until the next frame from the same source
	// passes it, swapping their arrival order.
	Reorder
	numFaultKinds
)

// String returns the fault mnemonic.
func (k FaultKind) String() string {
	names := [...]string{"drop", "corrupt", "delay", "reorder"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// Rule is one probabilistic per-frame fault.
type Rule struct {
	// Kind selects the fault.
	Kind FaultKind
	// Prob is the per-frame probability in [0, 1].
	Prob float64
	// Frames restricts the rule to the listed frame kinds; empty matches
	// every kind. Restricting drops to RTS/CTS keeps a scenario inside the
	// recoverable taxonomy (the rendezvous retry re-sends control frames;
	// nothing re-sends a silently dropped data frame).
	Frames []packet.FrameKind
	// Delay is the hold time for Delay rules.
	Delay time.Duration
}

// Validate reports the first inconsistency in the rule.
func (r Rule) Validate() error {
	switch {
	case r.Kind >= numFaultKinds:
		return fmt.Errorf("chaos: unknown fault kind %d", r.Kind)
	case r.Prob < 0 || r.Prob > 1:
		return fmt.Errorf("chaos: probability %v outside [0,1]", r.Prob)
	case r.Kind == Delay && r.Delay <= 0:
		return fmt.Errorf("chaos: delay rule with no delay")
	}
	return nil
}

func (r Rule) matches(k packet.FrameKind) bool {
	if len(r.Frames) == 0 {
		return true
	}
	for _, fk := range r.Frames {
		if fk == k {
			return true
		}
	}
	return false
}

// Injector wraps one rail in the fault layer: the frame-level rules on the
// receive path and the link gate (SetPeerDown) on the send path. It
// implements drivers.Driver (and forwards the optional failure interfaces),
// so an engine runs over injected rails unchanged — on either clock: every
// hold is scheduled through the simnet.Runtime the rail runs on, so under
// the discrete-event engine Delay and Reorder replay event-for-event like
// everything else, and over sockets they ride wall timers.
type Injector struct {
	inner drivers.Driver
	rt    simnet.Runtime
	rules []Rule

	mu     sync.Mutex
	rng    *simnet.RNG
	onRecv drivers.RecvFunc
	onDown func(peer packet.NodeID)
	down   map[packet.NodeID]bool // peers the link gate holds down
	// holds is every frame the injector is sitting on (delayed or in a
	// reorder slot). Whoever removes an entry, under mu, owns delivering
	// that frame — so a release timer that fires after its frame was
	// displaced, overtaken or flushed finds nothing and does nothing,
	// whatever its cancel reported.
	holds    map[*heldFrame]struct{}
	slot     map[packet.NodeID]*heldFrame // the reorder slot, one per source
	nextHold uint64
	injected [numFaultKinds]uint64
	closed   bool
	wg       sync.WaitGroup // release callbacks mid-delivery
}

type heldFrame struct {
	src    packet.NodeID
	f      *packet.Frame
	seq    uint64 // hold order, so Close flushes deterministically
	cancel simnet.CancelFunc
}

// reorderFallback releases a reorder-slot frame no successor overtook.
const reorderFallback = 5 * simnet.Millisecond

// NewInjector wraps d — a rail running on rt — with the given rules,
// drawing fault decisions from rng (which the injector owns from here on).
func NewInjector(d drivers.Driver, rt simnet.Runtime, rng *simnet.RNG, rules ...Rule) (*Injector, error) {
	if rt == nil {
		return nil, fmt.Errorf("chaos: injector for %s needs the runtime its rail runs on", d.Name())
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	if rng == nil {
		rng = simnet.NewRNG(0)
	}
	inj := &Injector{
		inner: d,
		rt:    rt,
		rules: append([]Rule(nil), rules...),
		rng:   rng,
		down:  make(map[packet.NodeID]bool),
		holds: make(map[*heldFrame]struct{}),
		slot:  make(map[packet.NodeID]*heldFrame),
	}
	return inj, nil
}

// RailInjector wraps rail number rail of d's node, forking its decision
// stream off base by the rail's identity. The key — not the order rails
// were built in — names the stream, and it is the same key in the emulated
// and the socket tier: one manifest seed means the same per-rail stream in
// both.
func RailInjector(d drivers.Driver, rt simnet.Runtime, base *simnet.RNG, rail int, rules ...Rule) (*Injector, error) {
	return NewInjector(d, rt, base.ForkString(fmt.Sprintf("drop/%d/%d", d.Node(), rail)), rules...)
}

// Injected returns how many faults of kind k the injector has applied.
func (in *Injector) Injected(k FaultKind) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if int(k) >= len(in.injected) {
		return 0
	}
	return in.injected[k]
}

// SetRecvHandler interposes the fault rules between the rail and fn.
func (in *Injector) SetRecvHandler(fn drivers.RecvFunc) {
	in.mu.Lock()
	in.onRecv = fn
	in.mu.Unlock()
	if fn == nil {
		in.inner.SetRecvHandler(nil)
		return
	}
	in.inner.SetRecvHandler(in.recv)
}

// deliver hands f to h, or releases it when nobody is downstream.
func deliver(h drivers.RecvFunc, src packet.NodeID, f *packet.Frame) {
	if h != nil {
		h(src, f)
	} else {
		packet.ReleaseFrame(f)
	}
}

// recv applies the first matching rule drawn for this frame. At most one
// fault applies per frame: compound faults obscure which mechanism
// recovered what.
func (in *Injector) recv(src packet.NodeID, f *packet.Frame) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		packet.ReleaseFrame(f)
		return
	}
	var verdict *Rule
	for i := range in.rules {
		r := &in.rules[i]
		if !r.matches(f.Kind) {
			continue
		}
		// Always consume one draw per matching rule, whether or not it
		// fires: the decision stream then depends only on the frame
		// sequence, not on which earlier rule happened to fire.
		if in.rng.Float64() < r.Prob && verdict == nil {
			verdict = r
		}
	}
	h := in.onRecv
	if verdict == nil {
		overtaken := in.takeSlotLocked(src)
		in.mu.Unlock()
		deliver(h, src, f)
		if overtaken != nil {
			deliver(h, src, overtaken)
		}
		return
	}
	in.injected[verdict.Kind]++
	switch verdict.Kind {
	case Drop:
		in.mu.Unlock()
		packet.ReleaseFrame(f)
	case Corrupt:
		in.mu.Unlock()
		cf := in.corrupt(f)
		// The corrupted copy (which aliases its own encoding) travels on;
		// the original dies here.
		packet.ReleaseFrame(f)
		if cf != nil {
			deliver(h, src, cf)
		}
	case Delay:
		in.holdLocked(src, f, simnet.FromWall(verdict.Delay))
		in.mu.Unlock()
	case Reorder:
		// A previous occupant is displaced and delivered now (two swaps
		// degenerate to a shuffle, which is fine — the reassembler
		// reorders by sequence number); the fallback release makes sure a
		// frame with no successor still arrives.
		displaced := in.takeSlotLocked(src)
		in.slot[src] = in.holdLocked(src, f, reorderFallback)
		in.mu.Unlock()
		if displaced != nil {
			deliver(h, src, displaced)
		}
	}
}

// corrupt flips 1–4 random bits in the frame's encoding and re-decodes.
// The draw count is fixed per invocation so the decision stream stays
// aligned across runs.
func (in *Injector) corrupt(f *packet.Frame) *packet.Frame {
	enc := f.Encode(nil)
	in.mu.Lock()
	flips := in.rng.Range(1, 4)
	for i := 0; i < flips; i++ {
		enc[in.rng.Intn(len(enc))] ^= byte(1 << in.rng.Intn(8))
	}
	in.mu.Unlock()
	cf := &packet.Frame{}
	if _, err := packet.DecodeInto(cf, enc); err != nil {
		return nil // corruption broke the framing: the frame is gone
	}
	return cf
}

// holdLocked parks f and schedules its release after d. The callback
// cannot observe a half-built hold: it takes in.mu, which the caller
// holds.
func (in *Injector) holdLocked(src packet.NodeID, f *packet.Frame, d simnet.Duration) *heldFrame {
	hf := &heldFrame{src: src, f: f, seq: in.nextHold}
	in.nextHold++
	in.holds[hf] = struct{}{}
	hf.cancel = in.rt.Schedule(d, "chaos.hold", func() { in.release(hf) })
	return hf
}

// takeLocked claims hf for delivery, reporting false when someone else
// already did.
func (in *Injector) takeLocked(hf *heldFrame) bool {
	if _, held := in.holds[hf]; !held {
		return false
	}
	delete(in.holds, hf)
	if in.slot[hf.src] == hf {
		delete(in.slot, hf.src)
	}
	return true
}

// takeSlotLocked claims the source's reorder-slot occupant, if any — the
// frame the current arrival is overtaking or displacing.
func (in *Injector) takeSlotLocked(src packet.NodeID) *packet.Frame {
	hf := in.slot[src]
	if hf == nil || !in.takeLocked(hf) {
		return nil
	}
	hf.cancel() // best effort: a release already on its way finds nothing
	return hf.f
}

// release is the timer side of a hold: deliver the frame unless an
// overtaking arrival, a displacement or Close claimed it first.
func (in *Injector) release(hf *heldFrame) {
	in.mu.Lock()
	if !in.takeLocked(hf) {
		in.mu.Unlock()
		return
	}
	h := in.onRecv
	in.wg.Add(1) // under mu and before closed is set, so Close's Wait sees it
	in.mu.Unlock()
	defer in.wg.Done()
	deliver(h, hf.src, hf.f)
}

// Close delivers every held frame, in hold order (close is not a fault),
// waits out releases already mid-delivery, and closes the wrapped driver.
func (in *Injector) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	flush := make([]*heldFrame, 0, len(in.holds))
	for hf := range in.holds {
		hf.cancel()
		flush = append(flush, hf)
	}
	in.holds = make(map[*heldFrame]struct{})
	in.slot = make(map[packet.NodeID]*heldFrame)
	h := in.onRecv
	in.mu.Unlock()
	sort.Slice(flush, func(i, j int) bool { return flush[i].seq < flush[j].seq })
	for _, hf := range flush {
		deliver(h, hf.src, hf.f)
	}
	in.wg.Wait()
	return in.inner.Close()
}

// SetPeerDown is the link gate: while peer is held down, Post toward it
// answers drivers.ErrPeerDown — exactly the error the engine's failover
// path treats as "try another rail or hold" — and PeerDown reports it; the
// peer-down handler fires once per up→down transition. Gating sends,
// rather than cutting the fabric, is what keeps a scripted link cut inside
// the recoverable taxonomy: frames in flight when the link goes still
// arrive, only new posts are refused.
func (in *Injector) SetPeerDown(peer packet.NodeID, down bool) {
	in.mu.Lock()
	was := in.down[peer]
	if down {
		in.down[peer] = true
	} else {
		delete(in.down, peer)
	}
	h := in.onDown
	in.mu.Unlock()
	if down && !was && h != nil {
		h(peer)
	}
}

// --- pass-through Driver surface -----------------------------------------

// Name identifies the injected rail.
func (in *Injector) Name() string { return "chaos:" + in.inner.Name() }

// Node returns the wrapped driver's node id.
func (in *Injector) Node() packet.NodeID { return in.inner.Node() }

// Caps returns the wrapped driver's capability record.
func (in *Injector) Caps() caps.Caps { return in.inner.Caps() }

// Mem returns the wrapped driver's memory model.
func (in *Injector) Mem() memsim.Model { return in.inner.Mem() }

// NumChannels returns the wrapped driver's send-unit count.
func (in *Injector) NumChannels() int { return in.inner.NumChannels() }

// ChannelIdle delegates to the wrapped driver.
func (in *Injector) ChannelIdle(ch int) bool { return in.inner.ChannelIdle(ch) }

// FirstIdle delegates to the wrapped driver.
func (in *Injector) FirstIdle() (int, bool) { return in.inner.FirstIdle() }

// Post delegates to the wrapped driver unless the link gate holds the
// destination down (frame faults apply on the receive side).
func (in *Injector) Post(ch int, f *packet.Frame, hostExtra simnet.Duration) error {
	in.mu.Lock()
	gated := in.down[f.Dst]
	in.mu.Unlock()
	if gated {
		return drivers.ErrPeerDown
	}
	return in.inner.Post(ch, f, hostExtra)
}

// SetIdleHandler delegates to the wrapped driver.
func (in *Injector) SetIdleHandler(fn drivers.IdleFunc) { in.inner.SetIdleHandler(fn) }

// SetFrameLossHandler forwards to the wrapped driver when it reports frame
// loss (drivers.FrameLossNotifier); no-op otherwise.
func (in *Injector) SetFrameLossHandler(fn drivers.FrameLossHandler) {
	if ln, ok := in.inner.(drivers.FrameLossNotifier); ok {
		ln.SetFrameLossHandler(fn)
	}
}

// SetPeerDownHandler installs fn for the link gate's transitions and
// forwards it to the wrapped driver when that reports peer failures too
// (drivers.PeerDownNotifier).
func (in *Injector) SetPeerDownHandler(fn func(peer packet.NodeID)) {
	in.mu.Lock()
	in.onDown = fn
	in.mu.Unlock()
	if dn, ok := in.inner.(drivers.PeerDownNotifier); ok {
		dn.SetPeerDownHandler(fn)
	}
}

// PeerDown reports a peer the link gate holds down, or that the wrapped
// driver has lost (drivers.PeerChecker; drivers without liveness tracking
// read as always up).
func (in *Injector) PeerDown(peer packet.NodeID) bool {
	in.mu.Lock()
	gated := in.down[peer]
	in.mu.Unlock()
	if gated {
		return true
	}
	pc, ok := in.inner.(drivers.PeerChecker)
	return ok && pc.PeerDown(peer)
}

// LandsFrames forwards drivers.FrameLander (a corrupted copy arrives
// unbacked and is refused like an unknown token).
func (in *Injector) LandsFrames() bool {
	fl, ok := in.inner.(drivers.FrameLander)
	return ok && fl.LandsFrames()
}

var _ drivers.Driver = (*Injector)(nil)
var _ drivers.FrameLossNotifier = (*Injector)(nil)
var _ drivers.PeerDownNotifier = (*Injector)(nil)
var _ drivers.PeerChecker = (*Injector)(nil)
