// Package core implements the paper's contribution: the dynamic
// optimizer-scheduler that sits between the packing API (collect layer) and
// the network drivers (transfer layer) — the middle box of Figure 1.
//
// One Engine runs per node. Its operation follows §3 of the paper:
//
//   - The application (through internal/mad) enqueues packets and
//     immediately returns to computing; Submit never blocks on the network.
//   - The scheduler is activated when a NIC send channel becomes idle, not
//     when packets are submitted. While channels are busy, a backlog of
//     waiting packets accumulates — the lookahead pool that widens the
//     optimizer's choices.
//   - If the NICs never stay busy, the engine either sends packets as they
//     arrive (NagleDelay = 0) or artificially delays them for a short time
//     "in a TCP Nagle's algorithm fashion" to increase the potential of
//     interesting aggregations.
//   - Strategy bundles (internal/strategy) decide what travels next; the
//     constraint rules of internal/packet bound every reordering; driver
//     capability records parameterize every decision.
//
// The engine is safe for concurrent use. One engine mutex (mu) guards the
// send and the protocol side alike, and each NIC channel's pump is
// serialized by a lock-free state word. Under the discrete-event runtime all
// upcalls arrive on one goroutine and every lock is uncontended; the socket
// driver delivers idle and receive upcalls from its own goroutines and
// exercises the full lock order (send.go).
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// Options configures an Engine.
type Options struct {
	// Bundle is the strategy in effect; resolve one from the registry or
	// assemble a custom combination.
	Bundle strategy.Bundle
	// Runtime supplies time and timers (the simulation engine or a
	// wall-clock runtime).
	Runtime simnet.Runtime
	// Rails are this node's drivers, one per attached network. They are
	// sorted by Name for deterministic rail indexing.
	Rails []drivers.Driver
	// Deliver receives reassembled in-order packets (the upcall into the
	// mad layer). It may call back into the engine (e.g. Submit a reply).
	Deliver proto.DeliverFunc

	// Deprecated: ignored. The engine has one send side.
	Shards int

	// Knobs is the initial operating point; SetKnobs replaces it at
	// runtime.
	strategy.Knobs
	// RdvRetry, when positive, arms a timeout per rendezvous start: if no
	// CTS arrives within the window, the RTS is rebuilt and re-sent (the
	// receiver deduplicates by token, so a retry can never double-deliver).
	// 0 disables retry — correct on loss-free fabrics, where a missing CTS
	// means a partition, not a lost frame. Retries back off: each doubles
	// the previous window.
	RdvRetry simnet.Duration
	// RdvRetryMax bounds the retries per rendezvous (0 = DefaultRdvRetryMax).
	// After the last retry the transfer is abandoned to the application
	// layer: the engine stops re-sending but keeps the payload, so a very
	// late CTS still completes it.
	RdvRetryMax int
	// OnPeerDown, when set, observes rail-level peer failures: rail is the
	// engine's rail index, peer the unreachable node. Called outside the
	// engine locks; installed only on rails that can report failures
	// (drivers.PeerDownNotifier).
	OnPeerDown func(rail int, peer packet.NodeID)
	// Quotas seeds the per-tenant admission table (admission.go): token-
	// bucket rates and backlog quotas checked at Submit before any send-side
	// state is touched. Empty/nil disables admission entirely: every
	// Submit is admitted. Tenants may also
	// be added or retuned at runtime via SetTenantQuota.
	Quotas map[packet.TenantID]TenantQuota
	// Stats stores the plan histograms and serves the engine's counters by
	// name (metrics.go); nil allocates a private set.
	Stats *stats.Set
	// Trace, when non-nil, records the engine's decision timeline.
	Trace *trace.Recorder
}

// rdvTimer is one armed rendezvous retry: the cancel handle plus the
// generation that identifies this arming. On the wall-clock runtime a
// cancelled timer's callback may already be committed to run; the
// generation check in onRdvRetry makes such a stale fire inert instead of
// letting it cancel or duplicate a newer arming for the same token.
type rdvTimer struct {
	gen    uint64
	cancel simnet.CancelFunc
}

// rdvRecvKey names an inbound rendezvous: tokens are per sender.
type rdvRecvKey struct {
	src   packet.NodeID
	token uint64
}

// Engine is the per-node optimizer-scheduler.
type Engine struct {
	node  packet.NodeID
	rt    simnet.Runtime
	set   *stats.Set
	rec   *trace.Recorder // nil = tracing off; trace.Recorder tolerates nil
	cfg   Options         // immutable after New; the live knobs are in knobs
	rails []drivers.Driver

	bundle atomic.Pointer[strategy.Bundle]
	// knobs is the operating point in effect, swapped as one immutable
	// value so the datapath reads it without a lock and SetKnobs never
	// stalls a pump.
	knobs  atomic.Pointer[strategy.Knobs]
	closed atomic.Bool

	// adm is the tenant admission table (admission.go); nil until a quota
	// is configured, and a nil table admits everything with zero overhead
	// beyond one atomic load per Submit.
	adm atomic.Pointer[admission]

	// submitSeq totally orders submissions across the backlog's (dst,
	// class) queues (the eligible view's merge key). backlogSz/backlogPeak
	// track the waiting-packet count — the Nagle flush decision, the pump's
	// skip hint and BacklogLen read it without mu. idleUps counts scheduler
	// activations, the two below it retune activity (knob changes hold no
	// engine lock).
	submitSeq      atomic.Uint64
	backlogSz      atomic.Int64
	backlogPeak    atomic.Int64
	idleUps        atomic.Uint64
	policySwitches atomic.Uint64
	tenantRetunes  atomic.Uint64

	// pumps[rail][channel] is each NIC channel's pump state word (send.go).
	pumps [][]atomic.Uint32

	// nQueued counts the frames in ctrlQ, bulkQ and failQ together, readable
	// without mu: a pump skips the lock when it and backlogSz are both 0.
	// Only pushFrameLocked and popFrameLocked touch it, under mu at the same
	// point as the queue, so it can be stale only in the direction of a
	// missed skip (the enqueuer's own pump follows).
	nQueued atomic.Int64

	// favorBulk alternates the planned-work pass between the eager backlog
	// and bulkQ (pumpChannel). Atomic because the skip path toggles it
	// outside mu.
	favorBulk atomic.Bool

	spare atomic.Pointer[packet.Packet] // a recycled copy Submit takes without mu

	// mu guards every field below — the send side (send.go) and the
	// protocol side that feeds its queues — except the histogram handles
	// and spans, which carry their own locks.
	mu       sync.Mutex
	backlog  backlogIndex     // waiting packets, indexed by (dst, class)
	ctrlQ    []*packet.Frame  // reactive control frames (RTS/CTS/Ack)
	bulkQ    []*packet.Frame  // granted rendezvous data, RMA frames
	failQ    []*packet.Frame  // frames whose rail died under them
	freePkts []*packet.Packet // zeroed copies that refill spare (freePacketLocked)

	// The Nagle delay, keyed by a generation so wall-clock stale fires are
	// inert.
	nagleArmed  bool
	nagleCancel simnet.CancelFunc
	nagleGen    uint64

	// The observation counters (metrics.go): the event tally, frames per
	// rail and peer-down events per rail (newmad_rail_peer_downs_total).
	ctr        Counters
	railFrames []uint64
	railDowns  []uint64

	// Per-tenant service accounting (admission.go): how many waiting
	// packets belong to each tenant, maintained at the same points as the
	// backlog index (drain in, plan out). tenantActive counts tenants
	// holding a nonzero share; the eligible view divides the lookahead
	// window by it so an admitted-but-heavy tenant cannot monopolize a
	// plan's slots. Fixed arrays: TenantID is a byte, so the full table is
	// 1 KiB and never allocates.
	tenantCount  [256]int32
	tenantActive int
	tenantTaken  [256]int32 // eligible-view merge scratch

	// Pump scratch, reused across pumps so the steady-state eager path
	// allocates nothing: the eligible view and its merge cursors, the
	// per-queue removal subsequences, the strategy context handed to plan
	// builders (builders must not retain it past Build), and the probe
	// packets the class/rail policies are consulted with.
	viewScratch  []*packet.Packet
	curScratch   []backlogCursor
	takenScratch []*packet.Packet
	planCtx      strategy.Context
	ctrlProbe    packet.Packet
	bulkProbe    packet.Packet

	// The only engine quantities stored in the Set, resolved once.
	hPlanPackets   *stats.Histogram
	hPlanEvaluated *stats.Histogram
	hPlanScore     *stats.Histogram

	// spans is the latency-span family (spans.go); its cells carry their
	// own locks, so the send and receive sides observe into one shared
	// family without coordination.
	spans *stats.Spans

	// The protocol side, under mu like the send side: the retune observer,
	// the protocol engines and their maps, the rendezvous span stamps and
	// retry timers, and delivery batching.
	retuneObs func(RetuneEvent)

	// rdvTimers tracks the retry timer armed per outstanding rendezvous;
	// rdvGen stamps each arming (see rdvTimer).
	rdvTimers map[uint64]rdvTimer
	rdvGen    uint64

	// Latency spans (see spans.go). rdvStart stamps when each outgoing
	// rendezvous queued its first RTS (sender side, SpanRdvGrant);
	// rdvRecvStart stamps the first grant per inbound rendezvous
	// (receiver side, SpanRdvData). arrivalRail is the rail index of the
	// frame currently being dispatched — valid only under mu inside
	// onFrame, read by the protocol-event hooks it calls.
	rdvStart     map[uint64]simnet.Time
	rdvRecvStart map[rdvRecvKey]simnet.Time
	arrivalRail  int

	reasm *proto.Reassembler
	rdvS  *proto.RdvSender
	rdvR  *proto.RdvReceiver
	rma   *proto.RMA
	disp  *proto.Dispatcher

	// pendingDeliver/pendingFns collect upcalls produced while holding
	// mu; they are invoked after unlock so user callbacks can re-enter
	// the engine (submit replies, start new RMA operations, ...).
	// deliverSpare is the double-buffer: a drained batch's backing array,
	// recycled so steady-state receives never regrow the pending slice.
	pendingDeliver []proto.Deliverable
	deliverSpare   []proto.Deliverable
	pendingFns     []func()
	deliver        proto.DeliverFunc
}

// New creates and wires a node engine.
func New(node packet.NodeID, opt Options) (*Engine, error) {
	if opt.Runtime == nil {
		return nil, fmt.Errorf("core: Options.Runtime is required")
	}
	if len(opt.Rails) == 0 {
		return nil, fmt.Errorf("core: at least one rail is required")
	}
	if opt.Deliver == nil {
		return nil, fmt.Errorf("core: Options.Deliver is required")
	}
	b := opt.Bundle
	if b.Builder == nil || b.Rail == nil || b.Classes == nil || b.Protocol == nil {
		return nil, fmt.Errorf("core: incomplete strategy bundle %q", b.Name)
	}
	if err := opt.Knobs.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opt.RdvRetry < 0 || opt.RdvRetryMax < 0 {
		return nil, fmt.Errorf("core: negative rendezvous retry option")
	}
	if opt.NagleFlushCount == 0 {
		opt.NagleFlushCount = DefaultNagleFlushCount
	}
	if opt.RdvRetryMax == 0 {
		opt.RdvRetryMax = DefaultRdvRetryMax
	}
	set := opt.Stats
	if set == nil {
		set = &stats.Set{}
	}
	rails := append([]drivers.Driver(nil), opt.Rails...)
	sort.Slice(rails, func(i, j int) bool { return rails[i].Name() < rails[j].Name() })
	for _, r := range rails {
		if r.Node() != node {
			return nil, fmt.Errorf("core: rail %s belongs to node %d, engine is node %d", r.Name(), r.Node(), node)
		}
	}

	e := &Engine{
		node:      node,
		rt:        opt.Runtime,
		set:       set,
		rec:       opt.Trace,
		cfg:       opt,
		rails:     rails,
		railDowns: make([]uint64, len(rails)),
		rdvTimers: make(map[uint64]rdvTimer),
		deliver:   opt.Deliver,

		railFrames: make([]uint64, len(rails)),
		ctrlProbe:  packet.Packet{Class: packet.ClassControl},

		spans:        stats.NewSpans(int(NumSpanKinds), int(packet.NumClasses), len(rails)),
		rdvStart:     make(map[uint64]simnet.Time),
		rdvRecvStart: make(map[rdvRecvKey]simnet.Time),

		hPlanPackets:   set.Histogram("core.plan_packets"),
		hPlanEvaluated: set.Histogram("core.plan_evaluated"),
		hPlanScore:     set.Histogram("core.plan_score_ns"),
	}
	if len(opt.Quotas) > 0 {
		max := packet.TenantID(0)
		for t, q := range opt.Quotas {
			if q.Rate < 0 || q.Burst < 0 || q.Backlog < 0 {
				return nil, fmt.Errorf("core: negative quota for tenant %d: %+v", t, q)
			}
			if t > max {
				max = t
			}
		}
		a := &admission{states: make([]*tenantState, int(max)+1)}
		for t, q := range opt.Quotas {
			ts := &tenantState{id: t}
			ts.quota.Store(compileQuota(q))
			a.states[t] = ts
		}
		e.adm.Store(a)
	}
	e.bundle.Store(&b)
	e.knobs.Store(&opt.Knobs)
	e.pumps = make([][]atomic.Uint32, len(rails))
	for i, r := range rails {
		e.pumps[i] = make([]atomic.Uint32, r.NumChannels())
	}
	e.reasm = proto.NewReassembler(node, func(d proto.Deliverable) {
		e.pendingDeliver = append(e.pendingDeliver, d)
	})
	e.rdvS = proto.NewRdvSender(node, e.onRdvGrantLocked)
	e.rdvR = proto.NewRdvReceiver(node, e.reasm, e.enqueueReactiveLocked, 0)
	e.rma = proto.NewRMA(node, e.enqueueReactiveLocked)
	e.disp = proto.NewDispatcher(node, e.reasm, e.rdvS, e.rdvR, e.rma)

	for i, r := range rails {
		i, r := i, r
		r.SetIdleHandler(func(ch int) { e.onIdle(i, ch) })
		r.SetRecvHandler(func(src packet.NodeID, f *packet.Frame) { e.onFrame(i, src, f) })
		// Rails that can hand back undeliverable frames and report peer
		// failures feed the engine's failover machinery; simulated fabrics
		// implement neither: they are loss-free.
		if ln, ok := r.(drivers.FrameLossNotifier); ok {
			ln.SetFrameLossHandler(func(_ packet.NodeID, frames []*packet.Frame) {
				e.onFrameLoss(i, frames)
			})
		}
		if dn, ok := r.(drivers.PeerDownNotifier); ok {
			dn.SetPeerDownHandler(func(peer packet.NodeID) { e.onPeerDown(i, peer) })
		}
	}
	set.Serve(e.serve)
	return e, nil
}

// DefaultRdvRetryMax bounds rendezvous RTS retries when Options.RdvRetry
// is enabled without an explicit cap.
const DefaultRdvRetryMax = 6

// onFrameLoss receives frames a failing rail reclaimed from its queue.
// They join the failover queue and re-travel on whatever rail still reaches
// their destination; the receiver's sequence-number dedupe turns the
// possible duplicate (the mid-write ambiguous frame) back into
// exactly-once delivery.
func (e *Engine) onFrameLoss(ri int, frames []*packet.Frame) {
	if e.closed.Load() {
		return
	}
	e.mu.Lock()
	e.pushFrameLocked(&e.failQ, frames...)
	e.ctr.FramesReclaimed += uint64(len(frames))
	e.mu.Unlock()
	e.rec.Record(trace.Event{
		At: e.rt.Now(), Kind: trace.KindFault, Node: e.node,
		A: ri, B: len(frames), Note: "reclaim:rail-down",
	})
	e.pumpAll()
}

// onPeerDown counts a rail-level peer failure and forwards it to the
// observer. Telemetry exports the per-rail counts summed, as
// newmad_rail_peer_downs_total.
func (e *Engine) onPeerDown(ri int, peer packet.NodeID) {
	if e.closed.Load() {
		return
	}
	e.mu.Lock()
	e.railDowns[ri]++
	e.mu.Unlock()
	e.rec.Record(trace.Event{
		At: e.rt.Now(), Kind: trace.KindFault, Node: e.node,
		A: ri, B: int(peer), Note: "peer-down",
	})
	if obs := e.cfg.OnPeerDown; obs != nil {
		obs(ri, peer)
	}
}

// Node returns the engine's node id.
func (e *Engine) Node() packet.NodeID { return e.node }

// Rails returns the engine's drivers in rail-index order.
func (e *Engine) Rails() []drivers.Driver { return append([]drivers.Driver(nil), e.rails...) }

// SetBundle switches the strategy at runtime — the paper's dynamic change
// of scheduling policy as application needs evolve.
func (e *Engine) SetBundle(b strategy.Bundle) error {
	if b.Builder == nil || b.Rail == nil || b.Classes == nil || b.Protocol == nil {
		return fmt.Errorf("core: incomplete strategy bundle %q", b.Name)
	}
	old := e.bundle.Swap(&b)
	e.policySwitches.Add(1)
	e.rec.Record(trace.Event{At: e.rt.Now(), Kind: trace.KindPolicy, Node: e.node, Note: b.Name})
	e.pumpAll()
	if old.Name != b.Name {
		if obs := e.retuneObserver(); obs != nil {
			obs(RetuneEvent{At: e.rt.Now(), Knob: "bundle", Note: "bundle=" + b.Name})
		}
	}
	return nil
}

// Bundle returns the strategy currently in effect.
func (e *Engine) Bundle() strategy.Bundle { return *e.bundle.Load() }

// DefaultNagleFlushCount is the flush count in effect when none is
// configured: a pending artificial delay is cut short once this many
// packets wait.
const DefaultNagleFlushCount = 4

// SetKnobs moves the engine to operating point k at runtime (the adaptive
// controller applies a registered tuning's knobs through it). k is refused
// by the rule New applies (strategy.Knobs.Validate), and a refused k
// changes nothing. A flush count of 0 means DefaultNagleFlushCount, as at
// construction, so an operating point never depends on the one before it.
// A zero delay releases any armed delay immediately, so a
// latency-sensitive phase never waits out a timer armed under the previous
// knobs. When a knob moved, one "tuning" RetuneEvent lists what moved.
func (e *Engine) SetKnobs(k strategy.Knobs) error {
	if err := k.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if k.NagleFlushCount == 0 {
		k.NagleFlushCount = DefaultNagleFlushCount
	}
	old := e.knobs.Swap(&k)
	if k.NagleDelay == 0 && e.releaseNagle() {
		e.pumpAll()
	}
	if moved := k.Moved(*old); moved != "" {
		e.notifyRetune(RetuneEvent{At: e.rt.Now(), Knob: "tuning", Note: moved})
	}
	return nil
}

// Submit enqueues one packet from the collect layer and returns
// immediately. Packets of one flow must be submitted with consecutive Seq
// values starting at zero; the mad layer guarantees this. Every packet
// enters the engine under mu, so a Submit that loses to Close is refused
// rather than silently dropped. The engine queues its own copy of *in and
// never writes to or keeps in, so the caller may reuse the struct once
// Submit returns; the payload bytes stay borrowed as in.Send says.
//
// Refusals are typed: ErrClosed after Close, and the admission-control
// refusals ErrThrottled/ErrQuotaExceeded (with retry-after, see
// ThrottleError) when the packet's tenant is over quota. A destination no
// rail currently reaches is not a refusal: the packet queues for a heal
// (the failover contract).
// Admission runs before the packet touches any send-side state — a shed
// packet never takes mu or charges a backlog counter (the
// shed-before-queue rule, DESIGN.md §10).
func (e *Engine) Submit(in *packet.Packet) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Src != e.node {
		return fmt.Errorf("core: packet src %d submitted on node %d", in.Src, e.node)
	}
	if err := checkSize(in.Size()); err != nil {
		return err
	}
	if e.closed.Load() {
		return ErrClosed
	}
	// Copy before any policy call: a packet handed to an interface escapes.
	p := e.spare.Swap(nil)
	if p == nil {
		p = new(packet.Packet)
	}
	*p = *in
	now := e.rt.Now()
	b := e.bundle.Load()
	// Protocol decision: large cheap packets travel by rendezvous. The
	// capability record consulted is the first rail this packet may use
	// (deterministic; multi-rail nodes with diverging thresholds can pin
	// protocols per class through the rail policy instead). A runtime
	// threshold override (Knobs.RdvThreshold) takes precedence over the bundle
	// policy so the controller can move the switchover without swapping
	// bundles.
	ri := e.protoRail(b, p)
	rdv := e.useRendezvous(b, p, e.rails[ri].Caps())
	// Admission last among the refusal checks: an admitted eager packet
	// carries a backlog charge that only a plan taking it releases, so the
	// one later refusal (losing to Close, below) hands the charge back.
	if err := e.admit(p, now, !rdv); err != nil {
		e.shedCopy(p)
		return err
	}
	p.SubmitSeq = e.submitSeq.Add(1)
	p.Enqueued = now
	if p.Enqueued == 0 {
		// Zero marks "never submitted" in latency accounting; clamp the
		// simulation epoch to 1 ns so t=0 submissions still count.
		p.Enqueued = 1
	}
	b.Classes.Observe(p)
	e.rec.Record(trace.Event{
		At: p.Enqueued, Kind: trace.KindSubmit, Node: e.node,
		Flow: p.Flow, Seq: p.Seq, A: p.Size(), B: int(p.Class),
	})

	fl, lands := e.rails[ri].(drivers.FrameLander)
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		if !rdv {
			e.adm.Load().releaseBacklog(p.Tenant) // no plan ever will
		}
		e.shedCopy(p)
		return ErrClosed
	}
	if n := len(e.freePkts); n > 0 && e.spare.CompareAndSwap(nil, e.freePkts[n-1]) {
		e.freePkts[n-1] = nil
		e.freePkts = e.freePkts[:n-1]
	}
	pump := true
	switch {
	case !rdv:
		pump = e.pushEagerLocked(p)
	case lands && fl.LandsFrames():
		// The rail lands frames: the RData leaves now — no RTS, CTS or timer.
		e.pushFrameLocked(&e.bulkQ, e.rdvS.Direct(p))
		e.countSubmitLocked(p, true)
		e.ctr.RdvGranted++
		e.freePacketLocked(p)
	default:
		rts := e.rdvS.Start(p)
		// Once mu drops, a pump may post the RTS and the rail owner recycle
		// it: keep the token, not the frame.
		token := rts.Ctrl.Token
		e.rdvStart[token] = p.Enqueued
		e.pushFrameLocked(&e.ctrlQ, rts)
		e.countSubmitLocked(p, true)
		e.armRdvRetryLocked(token, 0)
	}
	e.mu.Unlock()
	if pump {
		e.pumpAll()
	}
	return nil
}

const freePktsMax = 256 // past it a freed copy goes to the GC

// freePacketLocked zeroes a copy the engine is done with and keeps it for a
// later Submit, unless freePkts is full. Caller holds mu.
func (e *Engine) freePacketLocked(p *packet.Packet) {
	*p = packet.Packet{}
	if len(e.freePkts) < freePktsMax {
		e.freePkts = append(e.freePkts, p)
	}
}

// shedCopy returns a refused Submit's copy to the spare slot, off mu (§10).
func (e *Engine) shedCopy(p *packet.Packet) {
	*p = packet.Packet{}
	e.spare.CompareAndSwap(nil, p)
}

// useRendezvous applies the runtime threshold override, falling back to
// the bundle's protocol policy over capability record c.
func (e *Engine) useRendezvous(b *strategy.Bundle, p *packet.Packet, c caps.Caps) bool {
	if thr := e.knobs.Load().RdvThreshold; thr > 0 {
		return !packet.EagerOnly(p) && p.Size() > thr
	}
	return b.Protocol.UseRendezvous(p, c)
}

// protoRail returns the rail governing protocol selection for p: the first
// rail the packet is eligible to use.
func (e *Engine) protoRail(b *strategy.Bundle, p *packet.Packet) int {
	for i := range e.rails {
		if b.Rail.Eligible(p, e.railInfo(i)) {
			return i
		}
	}
	return 0
}

// Flush forces any Nagle-delayed packets out now. On a closed engine it
// returns immediately: Close owns the send-side teardown, and a Flush
// racing it must neither re-pump rails whose handlers are being detached
// nor wait on anything (pinned by TestFlushCloseRace).
func (e *Engine) Flush() {
	if e.closed.Load() {
		return
	}
	e.releaseNagle()
	e.pumpAll()
}

// releaseNagle cuts an armed artificial delay short, reporting whether one
// was armed.
func (e *Engine) releaseNagle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.nagleArmed {
		return false
	}
	e.ctr.NagleEarly++
	e.disarmNagleLocked()
	return true
}

// armRdvRetryLocked schedules the attempt-th RTS retry for token, with
// exponential backoff. No-op when retry is disabled or the budget is
// spent. Each arming carries a fresh generation: a fire whose generation
// no longer matches the armed timer (it was cancelled or superseded while
// the callback was in flight — the same wall-clock race nagleGen guards)
// is discarded by onRdvRetry instead of acting on the newer arming's
// state. Caller holds mu.
func (e *Engine) armRdvRetryLocked(token uint64, attempt int) {
	if e.cfg.RdvRetry <= 0 || attempt >= e.cfg.RdvRetryMax {
		return
	}
	e.rdvGen++
	gen := e.rdvGen
	delay := e.cfg.RdvRetry << uint(attempt)
	// The callback cannot observe the map before this function returns:
	// onRdvRetry takes mu, which the caller holds.
	e.rdvTimers[token] = rdvTimer{
		gen:    gen,
		cancel: e.rt.Schedule(delay, "core.rdv-retry", func() { e.onRdvRetry(token, attempt, gen) }),
	}
}

// onRdvRetry fires when a rendezvous has waited out its CTS window: if the
// transfer is still ungranted, the RTS is rebuilt and re-queued (the
// receiver's token dedupe makes the duplicate harmless) and the next
// backoff is armed.
func (e *Engine) onRdvRetry(token uint64, attempt int, gen uint64) {
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return
	}
	t, ok := e.rdvTimers[token]
	if !ok || t.gen != gen {
		// Stale fire: this arming was cancelled (grant or Close) or
		// superseded while the callback was already in flight. Without the
		// generation check a stale fire would consume the *newer* arming's
		// map entry and fork a duplicate retry chain.
		e.mu.Unlock()
		return
	}
	delete(e.rdvTimers, token)
	rts := e.rdvS.RetryRTS(token)
	if rts == nil {
		// Granted while the timer was in flight: nothing to do.
		e.mu.Unlock()
		return
	}
	e.pushFrameLocked(&e.ctrlQ, rts)
	e.ctr.RdvRetries++
	e.rec.Record(trace.Event{
		At: e.rt.Now(), Kind: trace.KindFault, Node: e.node,
		Flow: rts.Ctrl.Flow, Seq: rts.Ctrl.Seq, A: attempt + 1,
		Note: "rdv-retry",
	})
	e.armRdvRetryLocked(token, attempt+1)
	e.mu.Unlock()
	e.pumpAll()
}

// cancelRdvRetryLocked disarms the retry timer for a granted token. Caller
// holds mu. Deleting the map entry is what makes a lost-race fire inert:
// the fire's generation can no longer match anything.
func (e *Engine) cancelRdvRetryLocked(token uint64) {
	if t, ok := e.rdvTimers[token]; ok {
		delete(e.rdvTimers, token)
		t.cancel()
	}
}

// Close detaches the engine from its rails and cancels every outstanding
// timer — the Nagle delay and all rendezvous retries — under the engine
// lock. On the wall-clock runtime a cancelled timer's callback may already
// be running; the closed flag and the generation checks make such late
// fires inert (pinned by TestCloseCancelsAllTimers).
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed.Store(true)
	for tok, t := range e.rdvTimers {
		delete(e.rdvTimers, tok)
		t.cancel()
	}
	if e.nagleArmed {
		e.disarmNagleLocked()
	}
	e.mu.Unlock()
	for _, r := range e.rails {
		r.SetIdleHandler(nil)
		r.SetRecvHandler(nil)
	}
}

// BacklogLen returns the number of waiting packets (diagnostic).
func (e *Engine) BacklogLen() int { return int(e.backlogSz.Load()) }

// QueuedFrames returns pending (control, bulk) frame counts (diagnostic).
func (e *Engine) QueuedFrames() (ctrl, bulk int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ctrlQ), len(e.bulkQ)
}
