package core

import (
	"sync"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Timer-discipline tests. On the wall-clock runtime a cancelled timer's
// callback can already be committed to a timer goroutine — time.Timer.Stop
// reports false and the callback runs anyway — and a callback can even run
// twice if a test (or a rearm race) captures it. The engine's defense is
// generation counters (nagleGen, rdvTimer.gen) plus the closed flag; these
// tests drive the engine through a hostile runtime that makes the races
// deterministic: it captures every scheduled callback and lets the test
// fire them late, twice, or after cancellation, exactly as a too-late
// Stop() would.

type hostileTimer struct {
	label     string
	fn        func()
	cancelled bool
}

// hostileRuntime implements simnet.Runtime with a manual clock and manual
// timer firing. CancelFunc marks the timer cancelled but does NOT prevent
// the test from invoking the captured callback — modelling the wall-clock
// runtime's Stop()-returned-false window.
type hostileRuntime struct {
	mu     sync.Mutex
	now    simnet.Time
	timers []*hostileTimer
}

func (h *hostileRuntime) Now() simnet.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.now
}

func (h *hostileRuntime) Schedule(d simnet.Duration, label string, fn func()) simnet.CancelFunc {
	h.mu.Lock()
	t := &hostileTimer{label: label, fn: fn}
	h.timers = append(h.timers, t)
	h.mu.Unlock()
	return func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		if t.cancelled {
			return false
		}
		t.cancelled = true
		return true
	}
}

// snapshot returns the timers captured so far.
func (h *hostileRuntime) snapshot() []*hostileTimer {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*hostileTimer(nil), h.timers...)
}

// newHostileEngine builds a node-0 engine over sim rails but with the
// hostile runtime supplying time and timers. The sim clock never advances,
// so posted frames are never delivered — which is exactly what these tests
// want: a rendezvous whose CTS never comes, a Nagle delay that never
// expires on its own.
func newHostileEngine(t *testing.T, rt *hostileRuntime, mutate func(*Options)) *Engine {
	t.Helper()
	cl, err := drivers.NewCluster(2, caps.MX)
	if err != nil {
		t.Fatal(err)
	}
	b, err := strategy.New("aggregate")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{
		Bundle:  b,
		Runtime: rt,
		Rails:   []drivers.Driver{cl.Driver(0, "mx")},
		Deliver: func(proto.Deliverable) {},
	}
	if mutate != nil {
		mutate(&opt)
	}
	eng, err := New(0, opt)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestRdvRetryStaleFireInert pins the generation guard on rendezvous retry
// timers. Sequence: retry T0 is armed, fires legitimately (retry #1, which
// arms T1), and then T0's captured callback fires a second time — the
// wall-clock "cancelled/superseded but already running" race. Without the
// generation check the stale fire looks up the token, finds T1's map
// entry, consumes it, and re-sends — forking a duplicate retry chain and
// double-counting retries. With the guard the stale fire is inert.
func TestRdvRetryStaleFireInert(t *testing.T) {
	rt := &hostileRuntime{}
	eng := newHostileEngine(t, rt, func(o *Options) {
		o.RdvThreshold = 64
		o.RdvRetry = simnet.Millisecond
	})

	// A packet above the threshold goes rendezvous and arms retry T0.
	if err := eng.Submit(pkt(1, 0, 0, 1, 1024)); err != nil {
		t.Fatal(err)
	}
	timers := rt.snapshot()
	if len(timers) != 1 || timers[0].label != "core.rdv-retry" {
		t.Fatalf("expected one armed rdv-retry timer, got %+v", timers)
	}
	t0 := timers[0]

	// Legitimate fire: no CTS arrived, so the engine re-sends the RTS and
	// arms the next backoff window T1.
	t0.fn()
	if got := eng.Metrics().RdvRetries; got != 1 {
		t.Fatalf("after first fire: RdvRetries = %d, want 1", got)
	}
	if n := len(rt.snapshot()); n != 2 {
		t.Fatalf("after first fire: %d timers captured, want 2 (T0 spent, T1 armed)", n)
	}

	// Stale double fire of T0. The token is still ungranted, so a guardless
	// engine would consume T1's arming and retry again.
	t0.fn()
	if got := eng.Metrics().RdvRetries; got != 1 {
		t.Fatalf("stale fire retried: RdvRetries = %d, want 1", got)
	}
	if n := len(rt.snapshot()); n != 2 {
		t.Fatalf("stale fire re-armed: %d timers captured, want 2", n)
	}

	// T1 is still the live arming: its legitimate fire must still work.
	t1 := rt.snapshot()[1]
	t1.fn()
	if got := eng.Metrics().RdvRetries; got != 2 {
		t.Fatalf("live timer dead after stale fire: RdvRetries = %d, want 2", got)
	}
}

// TestCloseCancelsAllTimers pins Engine.Close timer hygiene: every armed
// timer — the Nagle delay and all rendezvous retries — is
// cancelled under its owning lock, and a callback that was already in
// flight when Close ran (cancel-too-late) finds the engine inert.
func TestCloseCancelsAllTimers(t *testing.T) {
	rt := &hostileRuntime{}
	eng := newHostileEngine(t, rt, func(o *Options) {
		o.RdvThreshold = 256
		o.RdvRetry = simnet.Millisecond
		o.NagleDelay = simnet.Millisecond
		o.NagleFlushCount = 100
	})

	// One small eager packet arms the Nagle delay; one large packet goes
	// rendezvous and arms a retry.
	if err := eng.Submit(pkt(1, 0, 0, 1, 16)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(pkt(2, 0, 0, 1, 1024)); err != nil {
		t.Fatal(err)
	}
	timers := rt.snapshot()
	want := map[string]bool{"core.nagle": false, "core.rdv-retry": false}
	for _, tm := range timers {
		want[tm.label] = true
	}
	for label, seen := range want {
		if !seen {
			t.Fatalf("timer %q never armed; captured %d timers", label, len(timers))
		}
	}

	eng.Close()
	for _, tm := range rt.snapshot() {
		if !tm.cancelled {
			t.Errorf("Close left timer %q armed", tm.label)
		}
	}

	// Cancel-too-late: fire every captured callback anyway. A closed
	// engine must treat them as no-ops — no panic, no counters moving.
	for _, tm := range rt.snapshot() {
		tm.fn()
		tm.fn() // and twice, for good measure
	}
	m := eng.Metrics()
	if m.NagleFires != 0 {
		t.Errorf("late nagle fire counted: NagleFires = %d", m.NagleFires)
	}
	if m.RdvRetries != 0 {
		t.Errorf("late rdv-retry fire counted: RdvRetries = %d", m.RdvRetries)
	}
}

// TestNagleStaleFireInert pins the same generation discipline on the
// Nagle timer: a fire that lost the race against a disarm (Flush
// here) must not flush a delay armed afterwards.
func TestNagleStaleFireInert(t *testing.T) {
	rt := &hostileRuntime{}
	eng := newHostileEngine(t, rt, func(o *Options) {
		o.NagleDelay = simnet.Millisecond
		o.NagleFlushCount = 100
	})

	if err := eng.Submit(pkt(1, 0, 0, 1, 16)); err != nil {
		t.Fatal(err)
	}
	timers := rt.snapshot()
	if len(timers) != 1 || timers[0].label != "core.nagle" {
		t.Fatalf("expected one armed nagle timer, got %+v", timers)
	}
	t0 := timers[0]

	eng.Flush() // disarms T0 (cut early), drains the backlog

	// Re-arm with a fresh submission.
	if err := eng.Submit(pkt(1, 1, 0, 1, 16)); err != nil {
		t.Fatal(err)
	}

	// T0's late fire must not flush the new arming.
	t0.fn()
	m := eng.Metrics()
	if m.NagleFires != 0 {
		t.Fatalf("stale nagle fire flushed a later arming: NagleFires = %d", m.NagleFires)
	}
	if m.NagleEarly != 1 {
		t.Fatalf("NagleEarly = %d, want 1 (the Flush)", m.NagleEarly)
	}
}
