package core

import (
	"fmt"
	"sync/atomic"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

// Multi-tenant admission control. Every packet carries a TenantID; an
// engine configured with quotas (Options.Quotas or SetTenantQuota) checks
// each submission against its tenant's token bucket and backlog quota
// *before* the packet touches any send-side state — a flooder is shed at the
// Submit boundary with a typed refusal and a retry-after hint, never
// queued, so its pressure cannot bloat the backlog index (the
// shed-before-queue rule, DESIGN.md §10).
//
// The rate check is a GCRA virtual-scheduling limiter: one atomic int64
// per tenant holding the theoretical arrival time (TAT), advanced by a CAS
// loop. Admitting a packet costs one load and one CAS on the happy path —
// no locks, no allocation — which is what keeps the Submit fast path at
// its ≤2 allocs/op gate with quotas enabled. Refusals allocate the
// *ThrottleError they return; a shed packet is off the fast path by
// definition.
//
// Engines with no quota table (adm == nil) skip every check and admit
// everything; the deterministic-replay suites run that way.

// TenantQuota bounds one tenant's admission.
type TenantQuota struct {
	// Rate is the sustained admission rate in packets per second;
	// 0 means unlimited (no token bucket for this tenant).
	Rate float64
	// Burst is how many packets may arrive back-to-back above the
	// sustained rate; 0 and 1 both mean no burst allowance.
	Burst int
	// Backlog caps the tenant's eager packets waiting inside the engine;
	// 0 means unlimited. Quota refusals clear as the backlog drains.
	Backlog int
}

// tenantState is one tenant's admission state: the quota in effect
// (swapped atomically so the controller can retune it live), the GCRA
// clock, the backlog charge, and the refusal tallies MetricsInto exports.
type tenantState struct {
	id    packet.TenantID
	quota atomic.Pointer[tenantQuotaState]

	// tat is the GCRA theoretical arrival time in engine-clock
	// nanoseconds: the earliest instant the *next* conforming packet is
	// expected. A packet arriving before tat-τ (τ = burst allowance) is
	// over rate and refused with retry-after = tat-τ − now.
	tat atomic.Int64

	backlog   atomic.Int64  // eager packets admitted and not yet planned
	submitted atomic.Uint64 // packets admitted
	throttled atomic.Uint64 // rate refusals
	overQuota atomic.Uint64 // backlog-quota refusals
}

// tenantQuotaState is the immutable compiled form of a TenantQuota: the
// user-facing values plus the GCRA increment (T = 1/rate) and burst
// tolerance (τ = (burst-1)·T) in nanoseconds, precomputed so the admit
// path never does float math.
type tenantQuotaState struct {
	TenantQuota
	incNs int64 // T: nanoseconds per conforming packet (0 = unlimited rate)
	tauNs int64 // τ: how far ahead of real time the TAT may run
}

func compileQuota(q TenantQuota) *tenantQuotaState {
	qs := &tenantQuotaState{TenantQuota: q}
	if q.Rate > 0 {
		qs.incNs = int64(1e9 / q.Rate)
		if qs.incNs < 1 {
			qs.incNs = 1
		}
		burst := q.Burst
		if burst < 1 {
			burst = 1
		}
		qs.tauNs = int64(burst-1) * qs.incNs
	}
	return qs
}

// admission is the engine's tenant table, swapped atomically as a whole
// when a new tenant is added; individual quota retunes swap only the
// tenant's compiled quota pointer. states is indexed by TenantID; nil
// entries are unlimited tenants (tracked only if a quota once existed).
type admission struct {
	states []*tenantState
}

func (a *admission) state(t packet.TenantID) *tenantState {
	if a == nil || int(t) >= len(a.states) {
		return nil
	}
	return a.states[t]
}

// admitRate runs the GCRA check for one packet at engine time now,
// advancing the tenant's TAT on success. Returns the retry-after hint on
// refusal. Lock-free; concurrent submitters race on the CAS and retry.
func (ts *tenantState) admitRate(now int64) (retryAfter int64, ok bool) {
	q := ts.quota.Load()
	if q.incNs == 0 {
		return 0, true
	}
	for {
		tat := ts.tat.Load()
		if tat-q.tauNs > now {
			return tat - q.tauNs - now, false
		}
		nt := tat
		if nt < now {
			nt = now
		}
		nt += q.incNs
		if ts.tat.CompareAndSwap(tat, nt) {
			return 0, true
		}
	}
}

// admitBacklog charges one eager packet against the tenant's backlog
// quota, reporting false (and undoing the charge) when over. The charge is
// released when a plan takes the packet out of the backlog
// (releaseBacklog from pumpBacklogLocked).
func (ts *tenantState) admitBacklog() bool {
	q := ts.quota.Load()
	if q.Backlog <= 0 {
		ts.backlog.Add(1)
		return true
	}
	if ts.backlog.Add(1) > int64(q.Backlog) {
		ts.backlog.Add(-1)
		return false
	}
	return true
}

// admit runs the full admission check for p at engine time now. eager
// marks packets that will enter the backlog index (rendezvous submissions
// hand over only an RTS control frame, so they pay the rate check but not
// the backlog quota). A nil receiver admits everything.
func (e *Engine) admit(p *packet.Packet, now simnet.Time, eager bool) error {
	ts := e.adm.Load().state(p.Tenant)
	if ts == nil {
		return nil
	}
	if retry, ok := ts.admitRate(int64(now)); !ok {
		ts.throttled.Add(1)
		return &ThrottleError{Tenant: p.Tenant, RetryAfter: simnet.Duration(retry), kind: ErrThrottled}
	}
	if eager && !ts.admitBacklog() {
		ts.overQuota.Add(1)
		return &ThrottleError{Tenant: p.Tenant, kind: ErrQuotaExceeded}
	}
	ts.submitted.Add(1)
	return nil
}

// releaseBacklog returns one backlog charge to its tenant: when a plan
// takes the packet (pumpBacklogLocked, under mu), or when the
// Submit that was charged loses to Close.
func (a *admission) releaseBacklog(t packet.TenantID) {
	if ts := a.state(t); ts != nil {
		ts.backlog.Add(-1)
	}
}

// SetTenantQuota installs or retunes tenant's quota at runtime. Zero
// values lift the corresponding limit (a zero TenantQuota admits the
// tenant unconditionally while keeping its accounting live). Negative
// values are rejected. Like every Set* knob the change is visible to the
// next Submit without locking, and a change emits a RetuneEvent (knob
// "tenant-quota") so controllers and experiments can timestamp the retune.
func (e *Engine) SetTenantQuota(tenant packet.TenantID, q TenantQuota) error {
	if q.Rate < 0 || q.Burst < 0 || q.Backlog < 0 {
		return fmt.Errorf("core: negative tenant quota %+v", q)
	}
	qs := compileQuota(q)
	for {
		a := e.adm.Load()
		if ts := a.state(tenant); ts != nil {
			old := ts.quota.Swap(qs)
			if old.TenantQuota == q {
				return nil // no change, no event
			}
			break
		}
		// Grow the table: copy-on-write so concurrent Submits keep a
		// consistent view. Existing tenantStates are shared, never rebuilt
		// — their buckets and tallies survive the swap.
		n := int(tenant) + 1
		var na admission
		if a != nil {
			if len(a.states) > n {
				n = len(a.states)
			}
			na.states = make([]*tenantState, n)
			copy(na.states, a.states)
		} else {
			na.states = make([]*tenantState, n)
		}
		ts := &tenantState{id: tenant}
		ts.quota.Store(qs)
		na.states[tenant] = ts
		if e.adm.CompareAndSwap(a, &na) {
			break
		}
	}
	e.tenantRetunes.Add(1)
	e.notifyRetune(RetuneEvent{
		At: e.rt.Now(), Knob: "tenant-quota",
		Note: fmt.Sprintf("tenant=%d rate=%g burst=%d backlog=%d", tenant, q.Rate, q.Burst, q.Backlog),
	})
	return nil
}
