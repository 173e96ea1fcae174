package core

import (
	"sync"
	"sync/atomic"

	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// The sharded engine core. The optimizer's unit of aggregation is the
// destination — plans are single-destination by construction (see
// pumpBacklogLocked's OrderedSubset check and backlogKey) — so the engine
// partitions its send-side state by destination: each shard owns a slice
// of the backlog index, the reactive control/bulk queues, the failover
// queue and the Nagle delay for the destinations hashed onto it. Flows
// sharing a destination still land in one shard, which is exactly the
// cross-flow view the paper's aggregation needs; flows to different
// destinations stop contending on anything but the NIC channels
// themselves.
//
// Three lock tiers, in acquisition order:
//
//	Engine.pmu  > shard.mu  > stats/trace leaf locks
//	chanPump.mu > shard.mu  > stats/trace leaf locks
//
// The stats.Set mutex is a leaf: the Set runs the engine's by-name reader
// (metrics.go, which takes shard locks and pmu) only after releasing it.
// pmu serializes the receive/protocol side (reassembly, rendezvous state,
// RMA windows, delivery batching, retry timers); it may take shard locks
// to queue reactive frames, never the reverse. chanPump serializes one NIC
// channel's pump, scanning shards for work; it may take shard locks, never
// pmu. Submit takes its destination's shard lock — the one way into a
// shard, eager and rendezvous alike — and never touches pmu unless the
// packet goes rendezvous.

// shardOf maps a destination to its owning shard. Plain modulo: node IDs
// are dense small integers in every deployment this engine targets, so
// consecutive destinations spread perfectly without a mixing step.
func (e *Engine) shardOf(dst packet.NodeID) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	return e.shards[uint64(dst)%uint64(len(e.shards))]
}

// shard owns the send-side state for one destination group.
type shard struct {
	idx int
	eng *Engine

	// Work hints, readable without mu: a channel pump skips shards whose
	// hints are all zero instead of taking every shard lock per pump. They
	// are updated under mu at the same point as the queues they mirror, so
	// a hint can be momentarily stale only in the direction of a missed
	// skip (the enqueuer's own pump follows and sees it).
	nCtrl    atomic.Int64
	nBulk    atomic.Int64
	nFail    atomic.Int64
	nBacklog atomic.Int64

	// favorBulk round-robins fairness between backlog and bulkQ, per shard.
	// It toggles on every planned-work visit — including visits the work
	// hints short-circuit: the alternation advances on every pump that
	// reaches the backlog/bulk stage, work or no work. The replay digests
	// and catalog.golden pin that cadence for the one-shard engine.
	// Atomic so the toggle happens before (outside) the shard lock the
	// hint skip avoids.
	favorBulk atomic.Bool

	mu      sync.Mutex
	backlog backlogIndex    // waiting packets, indexed by (dst, class)
	ctrlQ   []*packet.Frame // reactive control frames (RTS/CTS/Ack)
	bulkQ   []*packet.Frame // granted rendezvous data, RMA frames
	failQ   []*packet.Frame // frames whose rail died under them

	// Per-shard Nagle delay: a shard arms its own timer for its own
	// backlog, keyed by a generation so wall-clock stale fires are inert.
	nagleArmed  bool
	nagleCancel simnet.CancelFunc
	nagleGen    uint64

	// ctr/railFrames are this shard's slice of the engine-private
	// observation counters; MetricsInto sums them across shards.
	ctr        Counters
	railFrames []uint64

	// Per-tenant service accounting (admission.go): how many of this
	// shard's waiting packets belong to each tenant, maintained under mu
	// at the same points as the backlog index (drain in, plan out).
	// tenantActive counts tenants holding a nonzero share; the eligible
	// view divides the lookahead window by it so an admitted-but-heavy
	// tenant cannot monopolize a plan's slots (weighted service — the
	// tenant-fairness half of admission control). Fixed arrays: TenantID
	// is a byte, so the full table is 1 KiB and never allocates.
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
}

// countSubmitLocked tallies one accepted submission, eager or rendezvous.
// Caller holds s.mu.
func (s *shard) countSubmitLocked(p *packet.Packet, rdv bool) {
	s.ctr.Submitted++
	s.ctr.SubmittedBytes += uint64(p.Size())
	if p.Class == packet.ClassControl {
		s.ctr.SubmittedCtrl++
	}
	if rdv {
		s.ctr.RdvBytes += uint64(p.Size())
		s.ctr.RdvStarted++
	}
}

// pushEagerLocked accounts one eager packet into the backlog and applies
// the Nagle arm/flush decision. It reports whether the caller should pump:
// false when the packet was absorbed into an armed artificial delay.
// Caller holds s.mu.
func (s *shard) pushEagerLocked(p *packet.Packet) (pump bool) {
	e := s.eng
	s.countSubmitLocked(p, false)
	s.ctr.EagerBytes += uint64(p.Size())
	s.backlog.push(p)
	s.tenantCount[p.Tenant]++
	if s.tenantCount[p.Tenant] == 1 {
		s.tenantActive++
	}
	s.nBacklog.Add(1)
	gsz := e.backlogSz.Add(1)
	e.notePeak(gsz)

	// Nagle: submission-triggered sends may be delayed briefly; the idle
	// upcall path always sends immediately. The flush decision reads the
	// global backlog depth — pressure anywhere flushes, as it did when one
	// lock owned the whole backlog.
	tun := e.tun.Load()
	if tun.nagleDelay > 0 && int(gsz) < tun.nagleFlush {
		if !s.nagleArmed {
			s.nagleArmed = true
			s.nagleGen++
			gen := s.nagleGen
			s.nagleCancel = e.rt.Schedule(tun.nagleDelay, "core.nagle", func() { e.onNagle(s, gen) })
			e.rec.Record(trace.Event{
				At: e.rt.Now(), Kind: trace.KindNagleArm, Node: e.node,
				A: int(tun.nagleDelay), B: int(gsz),
			})
		}
		return false
	}
	if s.nagleArmed {
		s.ctr.NagleEarly++
		s.disarmNagleLocked()
	}
	return true
}

// disarmNagleLocked retires the shard's armed delay. The generation bump
// makes a timer fire that lost the race against this disarm (possible on
// the wall-clock runtime, where cancelling an already-running callback is
// a no-op) recognize itself as stale. Caller holds s.mu.
func (s *shard) disarmNagleLocked() {
	s.nagleArmed = false
	s.nagleGen++
	if s.nagleCancel != nil {
		s.nagleCancel()
		s.nagleCancel = nil
	}
}

// onNagle fires when a shard's artificial delay expires.
func (e *Engine) onNagle(s *shard, gen uint64) {
	s.mu.Lock()
	if gen != s.nagleGen {
		// Stale fire: this arming was disarmed (and possibly re-armed)
		// while the callback was already in flight.
		s.mu.Unlock()
		return
	}
	s.nagleArmed = false
	s.nagleCancel = nil
	s.ctr.NagleFires++
	s.mu.Unlock()
	e.rec.Record(trace.Event{At: e.rt.Now(), Kind: trace.KindNagleFire, Node: e.node, A: int(e.backlogSz.Load())})
	e.pumpAll()
}

// notePeak maintains the backlog high-water mark.
func (e *Engine) notePeak(depth int64) {
	for {
		pk := e.backlogPeak.Load()
		if depth <= pk || e.backlogPeak.CompareAndSwap(pk, depth) {
			return
		}
	}
}

// chanPump serializes pumping of one (rail, channel): exactly one
// goroutine runs the idle-check → shard-scan → Post sequence at a time, so
// a post to an idle channel can never race another post to the same
// channel. A contender that fails the TryLock leaves its request in
// `pending` (and `pendingIdle` when it carries a genuine NIC-idle
// activation); the holder re-pumps until no request remains, so no kick is
// ever lost. rotor rotates the shard scan start so no shard is
// systematically served first; it is guarded by mu.
type chanPump struct {
	mu          sync.Mutex
	pending     atomic.Bool
	pendingIdle atomic.Bool
	rotor       int
}

// kickChannel requests a pump of (rail ri, channel ch). idleUpcall marks a
// genuine NIC-idle activation (which an armed Nagle delay never holds
// against, per the paper); it reaches the pump only through pendingIdle, so
// it is applied to exactly one scan — the first to consume it.
func (e *Engine) kickChannel(ri, ch int, idleUpcall bool) {
	cp := &e.pumps[ri][ch]
	cp.pending.Store(true)
	if idleUpcall {
		cp.pendingIdle.Store(true)
	}
	for {
		if !cp.mu.TryLock() {
			// The holder clears pending before pumping and re-checks after
			// releasing, so our request is either seen or re-run.
			return
		}
		if !cp.pending.Load() {
			cp.mu.Unlock()
			return
		}
		cp.pending.Store(false)
		e.pumpChannel(ri, ch, cp.pendingIdle.Swap(false), cp)
		cp.mu.Unlock()
		if !cp.pending.Load() {
			return
		}
	}
}

// pumpChannel offers (rail ri, channel ch) the most valuable work across
// all shards. Priority order matches the single-lock engine exactly:
// reactive control frames and failover re-posts from any shard first, then
// planned backlog/bulk work. The scan starts at the channel's rotor so
// shard service order rotates deterministically. Caller holds cp.mu.
func (e *Engine) pumpChannel(ri, ch int, idleUpcall bool, cp *chanPump) {
	if e.closed.Load() {
		// A pump that raced Close stops scanning: Close is discarding the
		// queues this scan would read, and the rails are being detached.
		return
	}
	r := e.rails[ri]
	if !r.ChannelIdle(ch) {
		return
	}
	shards := e.shards
	n := len(shards)
	start := cp.rotor
	cp.rotor++
	if cp.rotor >= n {
		cp.rotor = 0
	}
	b := e.bundle.Load()
	// Pass 1: control/signalling and failover traffic — latency-critical,
	// never queues behind data.
	for i := 0; i < n; i++ {
		s := shards[(start+i)%n]
		if s.nCtrl.Load() == 0 && s.nFail.Load() == 0 {
			continue
		}
		s.mu.Lock()
		posted := s.pumpReactiveLocked(b, ri, ch)
		s.mu.Unlock()
		if posted {
			return
		}
	}
	// Pass 2: planned work — the eager backlog and granted bulk.
	for i := 0; i < n; i++ {
		s := shards[(start+i)%n]
		fav := s.favorBulk.Load()
		s.favorBulk.Store(!fav)
		if s.nBacklog.Load() == 0 && s.nBulk.Load() == 0 {
			continue
		}
		s.mu.Lock()
		posted := s.pumpWorkLocked(b, ri, ch, idleUpcall, fav)
		s.mu.Unlock()
		if posted {
			return
		}
	}
}

// newShard builds one shard with its scratch sized for the engine's rails.
func newShard(e *Engine, idx int) *shard {
	s := &shard{
		idx:        idx,
		eng:        e,
		railFrames: make([]uint64, len(e.rails)),
	}
	s.ctrlProbe = packet.Packet{Class: packet.ClassControl}
	return s
}

// mergeCounters folds this shard's private counters into out under the
// shard lock (MetricsInto's snapshot path).
func (s *shard) mergeInto(m *Metrics) {
	s.mu.Lock()
	m.Backlog += s.backlog.size
	m.CtrlQueued += len(s.ctrlQ)
	m.BulkQueued += len(s.bulkQ)
	m.FailoverQueued += len(s.failQ)
	m.Counters.add(&s.ctr)
	for i, v := range s.railFrames {
		m.RailFrames[i] += v
	}
	s.mu.Unlock()
}

// Shards returns the number of pump shards the engine runs (diagnostic;
// 1 is what every simulation and testnet runs).
func (e *Engine) Shards() int { return len(e.shards) }
