package core

import (
	"sync"
	"sync/atomic"

	"newmad/internal/packet"
	"newmad/internal/trace"
)

// The send side. One lock, Engine.mu, guards everything between Submit and a
// NIC post — the backlog index, the reactive control/bulk queues, the
// failover queue, the Nagle delay, the counters and the pump scratch — and
// the protocol side that feeds those queues from received frames. Each NIC
// channel's pump is serialized by its own chanPump. Acquisition order:
//
//	chanPump.mu > Engine.mu > stats/trace leaf locks
//
// The stats.Set mutex is a leaf: the Set runs the engine's by-name reader
// (metrics.go, which takes mu) only after releasing it. Submit, a received
// frame, a retry timer and a pump each take mu once; the protocol engines'
// hooks run inside the section that called them.

// countSubmitLocked tallies one accepted submission, eager or rendezvous.
// Caller holds mu.
func (e *Engine) countSubmitLocked(p *packet.Packet, rdv bool) {
	e.ctr.Submitted++
	e.ctr.SubmittedBytes += uint64(p.Size())
	if p.Class == packet.ClassControl {
		e.ctr.SubmittedCtrl++
	}
	if rdv {
		e.ctr.RdvBytes += uint64(p.Size())
		e.ctr.RdvStarted++
	}
}

// pushEagerLocked accounts one eager packet into the backlog and applies
// the Nagle arm/flush decision. It reports whether the caller should pump:
// false when the packet was absorbed into an armed artificial delay.
// Caller holds mu.
func (e *Engine) pushEagerLocked(p *packet.Packet) (pump bool) {
	e.countSubmitLocked(p, false)
	e.ctr.EagerBytes += uint64(p.Size())
	e.backlog.push(p)
	e.tenantCount[p.Tenant]++
	if e.tenantCount[p.Tenant] == 1 {
		e.tenantActive++
	}
	gsz := e.backlogSz.Add(1)
	e.notePeak(gsz)

	// Nagle: submission-triggered sends may be delayed briefly; the idle
	// upcall path always sends immediately.
	k := e.knobs.Load()
	if k.NagleDelay > 0 && int(gsz) < k.NagleFlushCount {
		if !e.nagleArmed {
			e.nagleArmed = true
			e.nagleGen++
			gen := e.nagleGen
			e.nagleCancel = e.rt.Schedule(k.NagleDelay, "core.nagle", func() { e.onNagle(gen) })
			e.rec.Record(trace.Event{
				At: e.rt.Now(), Kind: trace.KindNagleArm, Node: e.node,
				A: int(k.NagleDelay), B: int(gsz),
			})
		}
		return false
	}
	if e.nagleArmed {
		e.ctr.NagleEarly++
		e.disarmNagleLocked()
	}
	return true
}

// disarmNagleLocked retires the armed delay. The generation bump makes a
// timer fire that lost the race against this disarm (possible on the
// wall-clock runtime, where cancelling an already-running callback is a
// no-op) recognize itself as stale. Caller holds mu.
func (e *Engine) disarmNagleLocked() {
	e.nagleArmed = false
	e.nagleGen++
	if e.nagleCancel != nil {
		e.nagleCancel()
		e.nagleCancel = nil
	}
}

// onNagle fires when the artificial delay armed as generation gen expires.
func (e *Engine) onNagle(gen uint64) {
	e.mu.Lock()
	if gen != e.nagleGen {
		// Stale fire: this arming was disarmed (and possibly re-armed)
		// while the callback was already in flight.
		e.mu.Unlock()
		return
	}
	e.nagleArmed = false
	e.nagleCancel = nil
	e.ctr.NagleFires++
	e.mu.Unlock()
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
// goroutine runs the idle-check → scan → Post sequence at a time, so a post
// to an idle channel can never race another post to the same channel. A
// contender that fails the TryLock leaves its request in `pending` (and
// `pendingIdle` when it carries a genuine NIC-idle activation); the holder
// re-pumps until no request remains, so no kick is ever lost — including
// the kick of an idle upcall a Post fires inside the holder's own scan.
type chanPump struct {
	mu          sync.Mutex
	pending     atomic.Bool
	pendingIdle atomic.Bool
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
		e.pumpChannel(ri, ch, cp.pendingIdle.Swap(false))
		cp.mu.Unlock()
		if !cp.pending.Load() {
			return
		}
	}
}

// pumpChannel offers (rail ri, channel ch) the most valuable work in two
// passes: reactive control frames and failover re-posts first, then planned
// backlog/bulk work. The atomic queue hints let a pass with nothing to do
// skip mu. Caller holds the channel's chanPump.
func (e *Engine) pumpChannel(ri, ch int, idleUpcall bool) {
	if e.closed.Load() {
		// A pump that raced Close stops: Close is discarding the queues
		// this pump would read, and the rails are being detached.
		return
	}
	if !e.rails[ri].ChannelIdle(ch) {
		return
	}
	b := e.bundle.Load()
	// Pass 1: control/signalling and failover traffic — latency-critical,
	// never queues behind data.
	if e.nCtrl.Load() != 0 || e.nFail.Load() != 0 {
		e.mu.Lock()
		posted := e.pumpReactiveLocked(b, ri, ch)
		e.mu.Unlock()
		if posted {
			return
		}
	}
	// Pass 2: planned work — the eager backlog and granted bulk. favorBulk
	// toggles on every pump that reaches this pass, work or no work; the
	// replay digests and catalog.golden pin that cadence.
	fav := e.favorBulk.Load()
	e.favorBulk.Store(!fav)
	if e.backlogSz.Load() == 0 && e.nBulk.Load() == 0 {
		return
	}
	e.mu.Lock()
	e.pumpWorkLocked(b, ri, ch, idleUpcall, fav)
	e.mu.Unlock()
}
