package core

import (
	"sync/atomic"

	"newmad/internal/packet"
	"newmad/internal/trace"
)

// The send side. One lock, Engine.mu, guards everything between Submit and a
// NIC post — the backlog index, the reactive control/bulk queues, the
// failover queue, the Nagle delay, the counters and the pump scratch — and
// the protocol side that feeds those queues from received frames. Each NIC
// channel's pump is serialized by a lock-free state word (kickChannel), so
// mu is the only engine mutex. Acquisition order:
//
//	Engine.mu > stats/trace leaf locks
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

// A channel's pump state is one word: pumpRunning while a goroutine scans
// the channel, pumpOwed when a kick arrived since the current scan began,
// pumpOwedIdle when one of those kicks was a genuine NIC-idle activation
// (which an armed Nagle delay never holds against, per the paper).
const (
	pumpRunning uint32 = 1 << iota
	pumpOwed
	pumpOwedIdle
)

// The word's transitions are pure functions returning the next word and a
// verdict; pumpStep applies one with a CAS loop, and
// TestPumpProtocolExhaustive steps the same functions through every
// interleaving. A kick's verdict is "the kicker runs the pump", a begin's
// "an idle request reaches this scan", a finish's "stop".
func pumpKick(w uint32) (uint32, bool) { return w | pumpRunning | pumpOwed, w&pumpRunning == 0 }
func pumpKickIdle(w uint32) (uint32, bool) {
	return w | pumpRunning | pumpOwed | pumpOwedIdle, w&pumpRunning == 0
}
func pumpBegin(w uint32) (uint32, bool) { return pumpRunning, w&pumpOwedIdle != 0 }
func pumpFinish(w uint32) (uint32, bool) {
	if w == pumpRunning {
		return 0, true
	}
	return w, false
}

func pumpStep(w *atomic.Uint32, t func(uint32) (uint32, bool)) bool {
	for {
		old := w.Load()
		if next, verdict := t(old); w.CompareAndSwap(old, next) {
			return verdict
		}
	}
}

// kickChannel requests a pump of (rail ri, channel ch) with kick, pumpKick
// or pumpKickIdle. A kick on a running channel leaves its request in the
// word and returns; the runner rescans until no request remains, so no
// kick is lost, including the idle upcall a Post fires inside the runner's
// own scan, and an idle request reaches exactly the first scan after it.
func (e *Engine) kickChannel(ri, ch int, kick func(uint32) (uint32, bool)) {
	w := &e.pumps[ri][ch]
	if !pumpStep(w, kick) {
		return
	}
	for {
		e.pumpChannel(ri, ch, pumpStep(w, pumpBegin))
		if pumpStep(w, pumpFinish) {
			return
		}
	}
}

// pumpChannel offers (rail ri, channel ch) the most valuable work in two
// passes under one critical section: reactive control frames and failover
// re-posts first, then planned backlog/bulk work. A pump with nothing
// queued anywhere skips mu. Caller runs the channel's pump (kickChannel).
func (e *Engine) pumpChannel(ri, ch int, idleUpcall bool) {
	if e.closed.Load() {
		// A pump that raced Close stops: the rails are being detached.
		return
	}
	if !e.rails[ri].ChannelIdle(ch) {
		return
	}
	// favorBulk toggles on every pump that gets past pass 1, work or no
	// work, alternating pass 2 between the eager backlog and bulkQ; the
	// replay digests and catalog.golden pin that cadence.
	if e.nQueued.Load() == 0 && e.backlogSz.Load() == 0 {
		e.favorBulk.Store(!e.favorBulk.Load())
		return
	}
	b := e.bundle.Load()
	e.mu.Lock()
	// Pass 1: control/signalling and failover traffic — latency-critical,
	// never queues behind data.
	if !e.pumpReactiveLocked(b, ri, ch) {
		// Pass 2: planned work — the eager backlog and granted bulk.
		fav := e.favorBulk.Load()
		e.favorBulk.Store(!fav)
		e.pumpWorkLocked(b, ri, ch, idleUpcall, fav)
	}
	e.mu.Unlock()
}
