package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// tpkt is pkt with a tenant tag.
func tpkt(flow packet.FlowID, seq int, src, dst packet.NodeID, size int, tenant packet.TenantID) *packet.Packet {
	p := pkt(flow, seq, src, dst, size)
	p.Tenant = tenant
	return p
}

// tenantRow digs one tenant's row out of a metrics snapshot.
func tenantRow(t *testing.T, e *Engine, id packet.TenantID) TenantMetrics {
	t.Helper()
	for _, tm := range e.Metrics().Tenants {
		if tm.Tenant == id {
			return tm
		}
	}
	t.Fatalf("no metrics row for tenant %d", id)
	return TenantMetrics{}
}

// TestSubmitThrottledTyped pins the rate-refusal contract: a tenant with
// burst 2 gets exactly two packets admitted back-to-back, and the third
// refusal matches ErrThrottled under errors.Is, unwraps to a
// *ThrottleError naming the tenant, and carries a positive retry-after
// hint. The refusal must not match ErrQuotaExceeded — callers branch on
// the two sentinels to decide between backoff-and-retry and load-shed.
func TestSubmitThrottledTyped(t *testing.T) {
	const tenant = packet.TenantID(7)
	tn := newNet(t, 2, "aggregate", func(o *Options) {
		o.Quotas = map[packet.TenantID]TenantQuota{
			tenant: {Rate: 1000, Burst: 2}, // 1ms per token, 2 back-to-back
		}
	})
	for seq := 0; seq < 2; seq++ {
		if err := tn.engines[0].Submit(tpkt(1, seq, 0, 1, 64, tenant)); err != nil {
			t.Fatalf("burst submit %d refused: %v", seq, err)
		}
	}
	err := tn.engines[0].Submit(tpkt(1, 2, 0, 1, 64, tenant))
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("over-rate submit: got %v, want ErrThrottled", err)
	}
	if errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("rate refusal %v must not match ErrQuotaExceeded", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) {
		t.Fatalf("refusal %T does not unwrap to *ThrottleError", err)
	}
	if te.Tenant != tenant {
		t.Fatalf("ThrottleError.Tenant = %d, want %d", te.Tenant, tenant)
	}
	if te.RetryAfter <= 0 {
		t.Fatalf("ThrottleError.RetryAfter = %v, want > 0", te.RetryAfter)
	}
	tm := tenantRow(t, tn.engines[0], tenant)
	if tm.Submitted != 2 || tm.Throttled != 1 {
		t.Fatalf("tenant metrics = %+v, want Submitted 2 Throttled 1", tm)
	}
}

// TestSubmitBacklogQuotaTyped pins the backlog-quota contract on a
// hand-stepped rail: with the channel occupied, a Backlog-3 tenant gets
// three packets queued and the fourth refused with ErrQuotaExceeded —
// and once the pump plans the queued packets the charge is released, so
// the same submission succeeds. Refusals never consume a flow sequence
// number (DESIGN.md §10): seq 4 is retried verbatim after the drain.
func TestSubmitBacklogQuotaTyped(t *testing.T) {
	const tenant = packet.TenantID(9)
	rt := &hostileRuntime{}
	d0 := newLossyDriver(0)
	b, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(0, Options{
		Bundle:  b,
		Runtime: rt,
		Rails:   []drivers.Driver{d0},
		Deliver: func(proto.Deliverable) {},
		Quotas: map[packet.TenantID]TenantQuota{
			tenant: {Backlog: 3}, // rate unlimited
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Seq 0 posts immediately (its charge is released at plan time); the
	// channel is then busy, so seqs 1-3 fill the backlog quota exactly.
	for seq := 0; seq < 4; seq++ {
		if err := eng.Submit(tpkt(1, seq, 0, 1, 64, tenant)); err != nil {
			t.Fatalf("submit %d refused: %v", seq, err)
		}
	}
	err = eng.Submit(tpkt(1, 4, 0, 1, 64, tenant))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: got %v, want ErrQuotaExceeded", err)
	}
	if errors.Is(err, ErrThrottled) {
		t.Fatalf("quota refusal %v must not match ErrThrottled", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) || te.Tenant != tenant {
		t.Fatalf("quota refusal %v does not carry tenant %d", err, tenant)
	}
	tm := tenantRow(t, eng, tenant)
	if tm.OverQuota != 1 || tm.Backlog != 3 {
		t.Fatalf("tenant metrics = %+v, want OverQuota 1 Backlog 3", tm)
	}

	// Drain: each step frees the channel and lets the pump plan backlog.
	// The released charges readmit the refused submission under its
	// original sequence number.
	for i := 0; i < 8; i++ {
		d0.step()
		if err = eng.Submit(tpkt(1, 4, 0, 1, 64, tenant)); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("seq 4 still refused after drain: %v", err)
	}
}

// TestSubmitClosedTyped pins ErrClosed: Submit after Close refuses with
// the sentinel under errors.Is, and Flush on a closed engine returns
// immediately instead of touching the torn-down send side.
func TestSubmitClosedTyped(t *testing.T) {
	tn := newNet(t, 2, "aggregate", nil)
	tn.engines[0].Close()
	if err := tn.engines[0].Submit(pkt(1, 0, 0, 1, 64)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: got %v, want ErrClosed", err)
	}
	tn.engines[0].Flush() // must return, not pump detached rails
}

// TestFlushCloseRace is the wall-clock pin for the Flush/Close race: over
// real TCP sockets, goroutines hammer Flush on an engine with Nagle
// arming and disarming underneath while Close tears the send side down.
// Flush must always return — when Close wins, the closed check makes it a
// no-op instead of re-pumping rails whose handlers are being detached or
// blocking on the engine lock held by the teardown. Run under
// -race this also pins the closed.Load ordering against the teardown
// writes.
func TestFlushCloseRace(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rt := simnet.NewRealRuntime()
	b, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(1, Options{
		Bundle:  b,
		Runtime: rt,
		Rails:   []drivers.Driver{nodes[1]},
		Deliver: func(proto.Deliverable) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(0, Options{
		Bundle:  bs,
		Runtime: rt,
		Rails:   []drivers.Driver{nodes[0]},
		Deliver: func(proto.Deliverable) {},
		Knobs:   strategy.Knobs{NagleDelay: simnet.FromWall(50 * time.Microsecond)},
	})
	if err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 400; j++ {
				eng.Flush()
			}
		}()
	}
	wg.Add(1)
	go func() { // keep Nagle arming so Flush has real work until Close wins
		defer wg.Done()
		<-start
		for seq := 0; ; seq++ {
			if err := eng.Submit(pkt(2, seq, 0, 1, 32)); errors.Is(err, ErrClosed) {
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(time.Millisecond)
		eng.Close()
	}()
	close(start)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Flush hung racing Close")
	}
}

// TestQueueGaugesQuiesce pins the observation-surface consistency
// contract: after multi-destination traffic fully drains, BacklogLen,
// QueuedFrames, and the per-tenant backlog gauge must all agree on zero —
// no counter may strand a count when its queues are empty.
func TestQueueGaugesQuiesce(t *testing.T) {
	const tenant = packet.TenantID(5)
	const perFlow = 20
	tn := newNet(t, 3, "aggregate", func(o *Options) {
		o.Quotas = map[packet.TenantID]TenantQuota{
			tenant: {Backlog: 1 << 20}, // roomy: accounting on, shedding off
		}
	}, singleChanMX())
	for seq := 0; seq < perFlow; seq++ {
		if err := tn.engines[0].Submit(tpkt(1, seq, 0, 1, 128, tenant)); err != nil {
			t.Fatalf("submit flow 1 seq %d: %v", seq, err)
		}
		if err := tn.engines[0].Submit(tpkt(2, seq, 0, 2, 128, tenant)); err != nil {
			t.Fatalf("submit flow 2 seq %d: %v", seq, err)
		}
	}
	if tn.engines[0].BacklogLen() == 0 {
		t.Fatal("backlog empty with a single channel occupied; test exercises nothing")
	}
	tn.cl.Eng.Run()

	if got := len(tn.inbox[1]); got != perFlow {
		t.Fatalf("node 1 delivered %d, want %d", got, perFlow)
	}
	if got := len(tn.inbox[2]); got != perFlow {
		t.Fatalf("node 2 delivered %d, want %d", got, perFlow)
	}
	for n, e := range tn.engines {
		if got := e.BacklogLen(); got != 0 {
			t.Errorf("node %d BacklogLen = %d at quiescence, want 0", n, got)
		}
		if ctrl, bulk := e.QueuedFrames(); ctrl != 0 || bulk != 0 {
			t.Errorf("node %d QueuedFrames = (%d, %d) at quiescence, want (0, 0)", n, ctrl, bulk)
		}
	}
	if tm := tenantRow(t, tn.engines[0], tenant); tm.Backlog != 0 {
		t.Errorf("tenant backlog gauge = %d at quiescence, want 0", tm.Backlog)
	}
}
