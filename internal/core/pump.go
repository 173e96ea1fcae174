package core

import (
	"errors"
	"fmt"

	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// The optimizing layer's hot path: reacting to idle channels.

// onIdle is the transfer layer's upcall: rail ri, channel ch finished
// serializing its frame. Per the paper, this — not Submit — is the moment
// the optimizer runs, with whatever backlog accumulated meanwhile.
func (e *Engine) onIdle(ri, ch int) {
	if e.closed.Load() {
		return
	}
	e.idleUps.Add(1)
	e.rec.Record(trace.Event{At: e.rt.Now(), Kind: trace.KindIdle, Node: e.node, A: ri, B: ch})
	e.kickChannel(ri, ch, pumpKickIdle)
}

// onFrame is the receive upcall on rail ri: route through the protocol
// dispatcher under mu, then hand any completed packets up and react to
// protocol events.
//
// Every frame a driver hands up was landed from its encoding (socket
// reader and simulated NIC alike) and ends here: the engine releases it on
// every path, a frame racing Close included.
func (e *Engine) onFrame(ri int, src packet.NodeID, f *packet.Frame) {
	// Copying the eager payloads out of the wire buffer is the longest step
	// of a dispatch and needs no engine state, so it runs before mu.
	proto.Land(f)
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		packet.ReleaseFrame(f)
		return
	}
	now := e.rt.Now()
	// The protocol-event hooks the dispatcher calls (onRdvGrantLocked) run
	// under mu and read the arrival rail from here.
	e.arrivalRail = ri
	// SpanXmit: the sender stamped the frame at post time and the simulated
	// NIC carries the stamp across; frames from a socket read zero and are
	// skipped.
	if f.Posted > 0 {
		e.spans.Observe(int(SpanXmit), int(frameClass(f)), ri, float64(now.Sub(f.Posted)))
	}
	// SpanRdvData closes when the granted bulk lands; the grant
	// (enqueueReactiveLocked) opened it.
	if f.Kind == packet.FrameRData {
		rk := rdvRecvKey{src, f.Ctrl.Token}
		if t0, ok := e.rdvRecvStart[rk]; ok {
			delete(e.rdvRecvStart, rk)
			e.spans.Observe(int(SpanRdvData), int(packet.ClassBulk), ri, float64(now.Sub(t0)))
		}
	}
	e.rec.Record(trace.Event{
		At: now, Kind: trace.KindRecv, Node: e.node,
		A: int(f.Kind), B: f.PayloadSize(), Note: f.Kind.String(),
	})
	e.disp.HandleFrame(src, f)
	deliver, fns := e.takeDeliveriesLocked()
	e.mu.Unlock()
	// Dispatch has copied or pinned everything that escapes (proto's
	// memory-discipline contract), so the frame and its unpinned backing
	// buffer recycle.
	packet.ReleaseFrame(f)
	e.dispatchDeliveries(deliver, fns, ri)
	// Protocol handling may have queued reactive frames (CTS, acks, get
	// replies) or granted rendezvous bulk; give idle channels a chance.
	e.pumpAll()
}

// takeDeliveriesLocked swaps out the accumulated delivery batch. Caller
// holds mu — all delivery producers (reassembler completion, RMA
// callbacks) run under it.
func (e *Engine) takeDeliveriesLocked() ([]proto.Deliverable, []func()) {
	d := e.pendingDeliver
	// Double-buffer: the spare (recycled by dispatchDeliveries once a
	// batch has been handed up) becomes the next accumulation target, so
	// the steady-state receive path never regrows the pending slice.
	if e.deliverSpare != nil {
		e.pendingDeliver = e.deliverSpare[:0]
		e.deliverSpare = nil
	} else {
		e.pendingDeliver = nil
	}
	fns := e.pendingFns
	e.pendingFns = nil
	e.ctr.Delivered += uint64(len(d))
	for i := range d {
		e.ctr.DeliveredBytes += uint64(d[i].Pkt.Size())
	}
	return d, fns
}

// dispatchDeliveries hands completed packets to the application. rail is
// the arrival rail of the frame that produced them (the E2E span's rail
// key), or -1 when the batch has no single arrival context.
func (e *Engine) dispatchDeliveries(ds []proto.Deliverable, fns []func(), rail int) {
	for _, fn := range fns {
		fn()
	}
	for _, d := range ds {
		if d.Pkt.Enqueued > 0 {
			e.spans.Observe(int(SpanE2E), int(d.Pkt.Class), rail, float64(e.rt.Now().Sub(d.Pkt.Enqueued)))
		}
		e.rec.Record(trace.Event{
			At: e.rt.Now(), Kind: trace.KindDeliver, Node: e.node,
			Flow: d.Pkt.Flow, Seq: d.Pkt.Seq, A: d.Pkt.Size(),
		})
		e.deliver(d)
	}
	if cap(ds) == 0 {
		return
	}
	// Hand the drained batch back as the spare accumulation buffer,
	// dropping its packet references first.
	for i := range ds {
		ds[i] = proto.Deliverable{}
	}
	e.mu.Lock()
	if e.deliverSpare == nil {
		e.deliverSpare = ds[:0]
	}
	e.mu.Unlock()
}

// enqueueReactiveLocked is the SendHook for the protocol engines: CTS/Ack
// frames join the control queue, data-bearing frames the bulk queue. Caller
// holds mu (protocol engines run under it).
func (e *Engine) enqueueReactiveLocked(f *packet.Frame) {
	switch f.Kind {
	case packet.FrameCTS:
		// SpanRdvData opens at the grant, keyed by the requesting sender;
		// a re-sent CTS keeps the first grant's stamp. A straggler RTS for
		// a completed token is dropped ungranted, so nothing stamps it.
		rk := rdvRecvKey{f.Dst, f.Ctrl.Token}
		if _, ok := e.rdvRecvStart[rk]; !ok {
			e.rdvRecvStart[rk] = e.rt.Now()
		}
		e.pushFrameLocked(&e.ctrlQ, f)
	case packet.FrameAck, packet.FrameRTS:
		e.pushFrameLocked(&e.ctrlQ, f)
	default:
		e.pushFrameLocked(&e.bulkQ, f)
	}
	e.ctr.ReactiveFrames++
}

// onRdvGrantLocked fires when a CTS arrives for a rendezvous this node
// started: the bulk payload becomes schedulable and the retry timer stands
// down. Caller holds mu (the CTS arrives via onFrame -> dispatcher).
func (e *Engine) onRdvGrantLocked(token uint64, p *packet.Packet) {
	e.cancelRdvRetryLocked(token)
	// SpanRdvGrant closes here: RTS first queued → CTS arrival, retries
	// included. The arrival rail is the one onFrame is dispatching.
	if t0, ok := e.rdvStart[token]; ok {
		delete(e.rdvStart, token)
		e.spans.Observe(int(SpanRdvGrant), int(packet.ClassBulk), e.arrivalRail, float64(e.rt.Now().Sub(t0)))
	}
	rdata := e.rdvS.BuildRData(token)
	e.pushFrameLocked(&e.bulkQ, rdata)
	e.ctr.RdvGranted++
	e.rec.Record(trace.Event{
		At: e.rt.Now(), Kind: trace.KindRdv, Node: e.node,
		Flow: rdata.Ctrl.Flow, Seq: rdata.Ctrl.Seq, A: rdata.Ctrl.Size, Note: "granted",
	})
}

// pumpAll kicks every channel of every rail once; each pump's own idle
// check decides whether the channel can take work.
func (e *Engine) pumpAll() {
	if e.closed.Load() {
		return
	}
	for ri, r := range e.rails {
		for ch := 0; ch < r.NumChannels(); ch++ {
			e.kickChannel(ri, ch, pumpKick)
		}
	}
}

func (e *Engine) railInfo(ri int) strategy.RailInfo {
	return strategy.RailInfo{Index: ri, Count: len(e.rails), Caps: e.rails[ri].Caps()}
}

// pumpReactiveLocked tries to occupy (rail ri, channel ch) with
// latency-critical traffic: a control frame if the class policy admits
// control here, else a failover re-post. Returns whether a frame was
// posted. Caller holds mu and runs the channel's pump.
func (e *Engine) pumpReactiveLocked(b *strategy.Bundle, ri, ch int) bool {
	// Control/signalling first: tiny, never queues behind data if the
	// class policy admits it here. The probe packet is engine-owned
	// scratch: policies only read it.
	if len(e.ctrlQ) > 0 && b.Classes.Allowed(packet.ClassControl, ch, e.rails[ri].NumChannels()) &&
		b.Rail.Eligible(&e.ctrlProbe, e.railInfo(ri)) {
		e.postLocked(ri, ch, e.popFrameLocked(&e.ctrlQ, 0), nil, 0)
		return true
	}
	// Failover traffic: frames whose original rail died re-travel on the
	// first live channel that admits their class — ahead of fresh work, so
	// recovery latency stays bounded by one pump cycle, not by queue
	// depth. Running before any fresh plan also keeps a healed peer's
	// reclaimed frames ahead of same-flow frames still in the backlog:
	// the reassembler tolerates reordering, but the failover queue
	// clearing first keeps recovery from queueing behind new plans.
	return e.pumpFailoverLocked(b, ri, ch)
}

// pumpWorkLocked tries to occupy (rail ri, channel ch) with planned work,
// alternating fairly between the eager backlog and granted bulk. Returns
// whether a frame was posted. Caller holds mu and runs the channel's pump.
//
// idleUpcall distinguishes a genuine NIC-idle activation from an
// opportunistic pump (after a received frame, a policy switch, ...). An
// armed Nagle delay holds the eager backlog against opportunistic pumps —
// otherwise any unrelated inbound frame would defeat the artificial delay,
// which for reaction-driven traffic (request-response) is every frame — but
// never against a genuine idle upcall: per the paper, the moment a send
// channel becomes free the optimizer runs with whatever accumulated.
// Control and granted-bulk frames are never held.
func (e *Engine) pumpWorkLocked(b *strategy.Bundle, ri, ch int, idleUpcall, favorBulk bool) bool {
	holdBacklog := e.nagleArmed && !idleUpcall
	tryBacklog := func() bool { return !holdBacklog && e.pumpBacklogLocked(b, ri, ch) }
	tryBulk := func() bool { return e.pumpBulkLocked(b, ri, ch) }
	first, second := tryBacklog, tryBulk
	if favorBulk {
		first, second = tryBulk, tryBacklog
	}
	if first() {
		return true
	}
	return second()
}

// frameClass maps a frame to the scheduling class governing its channel
// admission.
func frameClass(f *packet.Frame) packet.ClassID {
	switch f.Kind {
	case packet.FrameData:
		if len(f.Entries) > 0 {
			return f.Entries[0].Class
		}
		return packet.ClassSmall
	case packet.FramePut, packet.FrameGet, packet.FrameGetReply:
		return packet.ClassRMA
	case packet.FrameRData:
		return packet.ClassBulk
	default:
		return packet.ClassControl
	}
}

// railReaches reports whether rail ri currently reaches peer: rails that
// track liveness (drivers.PeerChecker) answer for themselves, all others —
// the simulated fabrics — count as reachable.
func (e *Engine) railReaches(ri int, peer packet.NodeID) bool {
	if pc, ok := e.rails[ri].(drivers.PeerChecker); ok {
		return !pc.PeerDown(peer)
	}
	return true
}

// railAdmits is the pump's rail rule: the rail policy's pick is a
// preference, not a pin. p may travel on rail info.Index, which the caller
// has found to reach p.Dst, when the policy picks that rail, or when the
// policy picks some rail and none of its picks reaches p.Dst. So a rail that
// lost its peer is routed around with no retune, a healed one takes its share
// back at once, and a packet the policy admits on no rail at all stays put.
func (e *Engine) railAdmits(b *strategy.Bundle, p *packet.Packet, info strategy.RailInfo) bool {
	if b.Rail.Eligible(p, info) {
		return true
	}
	picked := false
	for i := range e.rails {
		if i == info.Index || !b.Rail.Eligible(p, e.railInfo(i)) {
			continue
		}
		if e.railReaches(i, p.Dst) {
			return false
		}
		picked = true
	}
	return picked
}

// pumpFailoverLocked re-posts the first failover frame this (rail, channel)
// can carry: the class policy still applies (control lanes stay protected),
// but the rail policy is bypassed — its preferred rail for the frame is
// exactly the one that died — and rails that do not reach the frame's
// destination are skipped. Frames nothing currently reaches stay queued for
// a heal. Caller holds mu.
func (e *Engine) pumpFailoverLocked(b *strategy.Bundle, ri, ch int) bool {
	if len(e.failQ) == 0 {
		return false
	}
	numCh := e.rails[ri].NumChannels()
	for i, f := range e.failQ {
		if !b.Classes.Allowed(frameClass(f), ch, numCh) {
			continue
		}
		if !e.railReaches(ri, f.Dst) {
			continue
		}
		e.popFrameLocked(&e.failQ, i)
		e.ctr.Failovers++
		e.rec.Record(trace.Event{
			At: e.rt.Now(), Kind: trace.KindFault, Node: e.node,
			A: ri, B: f.WireSize(), Note: "failover:" + f.Kind.String(),
		})
		e.postLocked(ri, ch, f, nil, 0)
		return true
	}
	return false
}

// pumpBulkLocked posts the first bulk frame admitted on this channel.
// Caller holds mu.
func (e *Engine) pumpBulkLocked(b *strategy.Bundle, ri, ch int) bool {
	info := e.railInfo(ri)
	numCh := e.rails[ri].NumChannels()
	for i, f := range e.bulkQ {
		class := frameClass(f)
		if !b.Classes.Allowed(class, ch, numCh) {
			continue
		}
		// The probe carries the transfer's full identity (flow, msg,
		// fragment seq) so striping rail policies can spread distinct bulk
		// transfers across rails while keeping each transfer's placement
		// stable. It is engine-owned scratch: policies only read it.
		e.bulkProbe = packet.Packet{Class: class, Flow: f.Ctrl.Flow, Msg: f.Ctrl.Msg, Seq: f.Ctrl.Seq, Dst: f.Dst}
		if !e.railReaches(ri, f.Dst) || !e.railAdmits(b, &e.bulkProbe, info) {
			continue
		}
		e.popFrameLocked(&e.bulkQ, i)
		e.postLocked(ri, ch, f, nil, 0)
		return true
	}
	return false
}

// pumpBacklogLocked runs the plan builder over the eligible backlog view.
// The view and the plan live only for this pump — the plan may sit in the
// context's scratch, which the next Build overwrites — and builders must
// not retain the view or the context past Build. Caller holds mu.
func (e *Engine) pumpBacklogLocked(b *strategy.Bundle, ri, ch int) bool {
	r := e.rails[ri]
	info := e.railInfo(ri)
	numCh := r.NumChannels()
	k := e.knobs.Load()

	view := e.eligibleLocked(b, info, ch, numCh, k.Lookahead)
	if len(view) == 0 {
		return false
	}
	// Field by field: the context outlives the pump because it carries the
	// builders' plan scratch from one Build to the next.
	ctx := &e.planCtx
	ctx.Now = e.rt.Now()
	ctx.Caps = r.Caps()
	ctx.Mem = r.Mem()
	ctx.Backlog = view
	ctx.Budget = k.SearchBudget
	plan := b.Builder.Build(ctx)
	if plan == nil || len(plan.Packets) == 0 {
		return false
	}
	if !packet.OrderedSubset(plan.Packets) {
		panic(fmt.Sprintf("core: strategy %q produced an order-violating plan", b.Builder.Name()))
	}
	e.takenScratch = e.backlog.removePlan(plan.Packets, e.takenScratch[:0])
	taken := int64(len(plan.Packets))
	e.backlogSz.Add(-taken)
	// Return the plan's packets to their tenants: the service shares and
	// the backlog quotas both release here, the single point where packets
	// leave the backlog index.
	adm := e.adm.Load()
	for _, p := range plan.Packets {
		if e.tenantCount[p.Tenant] > 0 {
			e.tenantCount[p.Tenant]--
			if e.tenantCount[p.Tenant] == 0 {
				e.tenantActive--
			}
		}
		if adm != nil {
			adm.releaseBacklog(p.Tenant)
		}
	}
	if e.backlog.size == 0 && e.nagleArmed {
		// The idle path drained everything the delay was holding; retire
		// the timer silently (neither a fire nor an early flush — the
		// packets left through a genuine idle upcall, so the delay was
		// neither pure latency nor pressure-cut).
		e.disarmNagleLocked()
	}

	// The frame is pooled: the driver releases it once its bytes are out
	// (a rail owner after its write, the simulated NIC after landing it).
	f := packet.AcquireFrame()
	f.Kind = packet.FrameData
	f.Src = e.node
	f.Dst = plan.Packets[0].Dst
	for _, p := range plan.Packets {
		entry := packet.EntryFromPacket(p)
		entry.Enqueued = p.Enqueued
		f.Entries = append(f.Entries, entry)
		// SpanQueueWait: how long this packet sat in the lookahead pool
		// before a plan pulled it, keyed by its class and the rail the
		// plan was built for.
		if p.Enqueued > 0 {
			e.spans.Observe(int(SpanQueueWait), int(p.Class), ri, float64(ctx.Now.Sub(p.Enqueued)))
		}
	}
	e.postLocked(ri, ch, f, plan.Packets, plan.HostExtra)

	e.rec.Record(trace.Event{
		At: e.rt.Now(), Kind: trace.KindPlan, Node: e.node,
		Flow: plan.Packets[0].Flow, Seq: plan.Packets[0].Seq,
		A: len(plan.Packets), B: plan.Evaluated,
		Note: b.Builder.Name(),
	})
	e.hPlanPackets.Add(float64(len(plan.Packets)))
	e.hPlanEvaluated.Add(float64(plan.Evaluated))
	if plan.Score > 0 {
		e.hPlanScore.Add(float64(plan.Score))
	}
	if len(plan.Packets) > 1 {
		e.ctr.Aggregates++
		e.ctr.AggregatedPackets += uint64(len(plan.Packets))
	}
	// The frame's entries hold what the packets said: recycle the copies.
	for _, p := range plan.Packets {
		e.freePacketLocked(p)
	}
	return true
}

// eligibleLocked builds the backlog view for one (rail, channel): packets
// admitted by the rail and class policies, in submission order, up to the
// lookahead window. The backlog index lets the uniform filters act on
// whole queues — a class the channel refuses, a destination the rail lost
// — while the per-packet rail rule (railAdmits) runs only on merge
// survivors. The merge is by SubmitSeq, so the view is exactly a
// submission-order scan of the whole backlog. The returned slice is
// engine-owned scratch, valid until the next pump. Caller holds mu.
func (e *Engine) eligibleLocked(b *strategy.Bundle, info strategy.RailInfo, ch, numCh, limit int) []*packet.Packet {
	view := e.viewScratch[:0]
	cur := e.curScratch[:0]
	// Weighted per-tenant service: with admission enabled and more than
	// one tenant waiting, no tenant may fill more than its fair share of
	// a bounded lookahead window. The merge stays in SubmitSeq order and a
	// capped tenant's flows are cut at a prefix (tenant is constant per
	// flow), so intra-flow FIFO is preserved exactly as with rail-policy
	// skips. With one tenant — or no quota table — the cap is off and the
	// view is byte-identical to the unweighted scan.
	perTenant := 0
	if limit > 0 && e.tenantActive > 1 && e.adm.Load() != nil {
		perTenant = limit / e.tenantActive
		if perTenant < 1 {
			perTenant = 1
		}
		for i := range e.tenantTaken {
			e.tenantTaken[i] = 0
		}
	}
	for _, q := range e.backlog.list {
		if q.size() == 0 {
			continue
		}
		if !b.Classes.Allowed(q.key.class, ch, numCh) {
			continue
		}
		if !e.railReaches(info.Index, q.key.dst) {
			// A rail that lost this peer does not plan toward it; a sibling
			// rail's pump (or a heal) picks the queue up instead.
			continue
		}
		cur = append(cur, backlogCursor{q: q, pos: q.head})
	}
	for len(cur) > 0 {
		best := -1
		var bestSeq uint64
		for i := range cur {
			c := &cur[i]
			if c.pos >= len(c.q.pkts) {
				continue
			}
			if seq := c.q.pkts[c.pos].SubmitSeq; best < 0 || seq < bestSeq {
				best, bestSeq = i, seq
			}
		}
		if best < 0 {
			break
		}
		c := &cur[best]
		p := c.q.pkts[c.pos]
		c.pos++
		if !e.railAdmits(b, p, info) {
			continue
		}
		if perTenant > 0 {
			if int(e.tenantTaken[p.Tenant]) >= perTenant {
				continue
			}
			e.tenantTaken[p.Tenant]++
		}
		view = append(view, p)
		if limit > 0 && len(view) >= limit {
			break
		}
	}
	e.viewScratch = view[:0]
	e.curScratch = cur[:0]
	return view
}

// pushFrameLocked appends fs to q (ctrlQ, bulkQ or failQ) and counts them
// in nQueued. Caller holds mu.
func (e *Engine) pushFrameLocked(q *[]*packet.Frame, fs ...*packet.Frame) {
	*q = append(*q, fs...)
	e.nQueued.Add(int64(len(fs)))
}

// popFrameLocked removes and returns q[i], keeping order and nQueued in
// step. The vacated tail slot is cleared so the backing array holds no
// pointer to a frame the driver may already have recycled. Caller holds mu.
func (e *Engine) popFrameLocked(q *[]*packet.Frame, i int) *packet.Frame {
	s := *q
	f := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	*q = s[:len(s)-1]
	e.nQueued.Add(-1)
	return f
}

// postLocked hands a frame to the driver and accounts for it. Posting to an
// idle channel must succeed; a busy error here means the engine's view of
// channel state diverged from the driver's, which is a bug worth crashing
// on in the simulator. A race between a pump's idle check and a concurrent
// post to the same channel is impossible because every post to (ri, ch)
// comes from the one goroutine running that channel's pump.
//
// ErrPeerDown is the exception: real transports lose peers at any moment,
// and the contract is that a dead destination releases rather than wedges.
// The frame joins the failover queue — to re-travel on a rail that
// still reaches the peer, or to wait out a partition until a heal — instead
// of being dropped: the engine owns the frame until some rail accepts it.
//
// ErrClosed is the other one: teardown (a test's or a cluster's cleanup)
// closes rails while pumps are mid-post. The rail is gone for good, so the
// frame is released and the post counts for nothing.
// Caller holds mu.
func (e *Engine) postLocked(ri, ch int, f *packet.Frame, pkts []*packet.Packet, hostExtra simnet.Duration) {
	// Ownership of f transfers to the driver at a successful Post: a wire
	// rail's owner goroutine may serialize and release it concurrently
	// with the accounting below, so everything the trace needs is read
	// BEFORE the handoff. On failure the frame stays ours.
	kind := f.Kind
	wire := f.WireSize()
	// SpanXmit's departure stamp. Not part of the encoding: the simulated
	// NIC copies it onto the frame it lands; on socket rails the receiver's
	// decoded frame reads zero.
	f.Posted = e.rt.Now()
	if err := e.rails[ri].Post(ch, f, hostExtra); err != nil {
		if errors.Is(err, drivers.ErrPeerDown) {
			e.pushFrameLocked(&e.failQ, f)
			e.ctr.PeerDownPosts++
			e.rec.Record(trace.Event{
				At: e.rt.Now(), Kind: trace.KindFault, Node: e.node,
				A: ri, B: wire, Note: "requeue:peer-down",
			})
			return
		}
		if errors.Is(err, drivers.ErrClosed) {
			packet.ReleaseFrame(f)
			return
		}
		panic(fmt.Sprintf("core: post on %s ch%d failed: %v", e.rails[ri].Name(), ch, err))
	}
	e.ctr.FramesPosted++
	e.railFrames[ri]++
	e.rec.Record(trace.Event{
		At: e.rt.Now(), Kind: trace.KindPost, Node: e.node,
		A: ri, B: wire, Note: kind.String(),
	})
	e.ctr.PacketsSent += uint64(len(pkts))
}
