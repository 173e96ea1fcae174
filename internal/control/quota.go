package control

import (
	"fmt"

	"newmad/internal/core"
	"newmad/internal/packet"
)

// The per-tenant quota loop: constrained optimization by multiplier
// update, after the zero-shot Lagrangian recipe (PAPERS.md). Each tenant
// with a positive rate in the engine's admission table at Start is
// controlled: the quota it had then is its nominal quota (its
// unconstrained operating point), and a dual multiplier μ ≥ 0 prices the
// tenant's pressure on the shared engine. Every control tick reads the
// tenant's slice of MetricsInto — backlog utilization against its nominal
// backlog quota, plus the fraction of its offered load the admission
// bucket refused — and runs one dual-ascent step:
//
//	μ ← max(0, μ + η·(backlogUtil + overDemand − target))
//	rate ← clamp(nominalRate / (1 + μ), minFrac·nominalRate, nominalRate)
//
// A flooding tenant spikes both pressure terms in the sample after its
// onset, so μ jumps and the retuned (demoted) rate lands on the engine
// within ONE control interval — no re-convergence from scratch, which is
// the whole point of the multiplier formulation: the dual state carries
// the constraint prices across tenant-mix shifts. When the flood stops,
// both terms read zero and μ decays by η·target per tick, healing the
// tenant back to nominal gradually (the asymmetry — demote in one tick,
// heal over several — is deliberate flood hysteresis).
//
// The loop only ever *lowers* rates below nominal; backlog quotas and
// burst stay at nominal, since the backlog cap is the constraint being
// priced, not the lever. Engines retune through the same SetTenantQuota
// knob operators use, so every demotion/heal counts in
// core.tenant_retunes and emits a "tenant-quota" RetuneEvent that
// experiments (X6) timestamp against the flood onset.

// The loop's tuning constants. η = 2 with target 0.5: a saturated flooder
// (backlogUtil ≈ 1, overDemand ≈ 0.9) gains μ ≈ 2.8 in one tick — rate cut
// to ≲ 30% of nominal immediately — while an idle tenant decays μ by 1.0
// per tick, healing in a few ticks.
const (
	// quotaTargetUtil is the pressure setpoint the dual ascent holds each
	// tenant to.
	quotaTargetUtil = 0.5
	// quotaEta is the dual-ascent step size.
	quotaEta = 2
	// quotaMinRateFrac floors a demoted tenant's rate at this fraction of
	// its nominal rate, so no tenant is ever starved to zero.
	quotaMinRateFrac = 0.1
	// deepBacklog is the waiting-list depth that reads as throughput
	// pressure regardless of the arrival rate (classify), and the backlog
	// a tenant without a backlog quota is priced against.
	deepBacklog = 24
)

// tenantCtl is the per-tenant dual state.
type tenantCtl struct {
	nominal core.TenantQuota
	mu      float64 // the Lagrangian multiplier
	rate    float64 // rate currently written to the engine

	// Previous-tick tallies for the over-demand delta.
	lastSubmitted uint64
	lastThrottled uint64
	lastOverQuota uint64
}

// quotaStart adopts the engine's admission table, as sampled in m, as the
// nominal points, and starts each tenant's refusal deltas from its tallies
// in m. Tenants without a rate limit stay outside the loop. Called from
// Start under mu.
func (c *Controller) quotaStart(m *core.Metrics) {
	c.qctl = make(map[packet.TenantID]*tenantCtl)
	for _, tm := range m.Tenants {
		if tm.RatePPS > 0 {
			c.qctl[tm.Tenant] = &tenantCtl{
				nominal:       core.TenantQuota{Rate: tm.RatePPS, Burst: tm.Burst, Backlog: tm.BacklogQuota},
				rate:          tm.RatePPS,
				lastSubmitted: tm.Submitted, lastThrottled: tm.Throttled, lastOverQuota: tm.OverQuota,
			}
		}
	}
}

// quotaStep runs one dual-ascent step per controlled tenant against the
// sample m and appends the quota retunes it decided to writes. It has no
// Confirm/Cooldown gate: demoting a flooder within one control interval is
// the loop's contract, and the write-on-change threshold is what keeps the
// steady state quiet. Called under mu.
func (c *Controller) quotaStep(m *core.Metrics, writes []write) []write {
	for i := range m.Tenants {
		tm := &m.Tenants[i]
		ctl := c.qctl[tm.Tenant]
		if ctl == nil {
			continue // not under this loop's control
		}

		// Pressure terms. Backlog utilization is against the NOMINAL
		// backlog quota — the constraint being priced — not the retuned
		// one. Over-demand is the refused fraction of this tick's offered
		// load: a flooder at 10× quota reads ≈0.9 the moment it ramps.
		var backlogUtil float64
		if ctl.nominal.Backlog > 0 {
			backlogUtil = float64(tm.Backlog) / float64(ctl.nominal.Backlog)
		} else {
			backlogUtil = float64(tm.Backlog) / deepBacklog
		}
		dSub := tm.Submitted - ctl.lastSubmitted
		dRef := (tm.Throttled - ctl.lastThrottled) + (tm.OverQuota - ctl.lastOverQuota)
		ctl.lastSubmitted, ctl.lastThrottled, ctl.lastOverQuota = tm.Submitted, tm.Throttled, tm.OverQuota
		var overDemand float64
		if dRef > 0 {
			overDemand = float64(dRef) / float64(dSub+dRef)
		}

		ctl.mu += quotaEta * (backlogUtil + overDemand - quotaTargetUtil)
		if ctl.mu < 0 {
			ctl.mu = 0
		}
		rate := ctl.nominal.Rate / (1 + ctl.mu)
		if min := quotaMinRateFrac * ctl.nominal.Rate; rate < min {
			rate = min
		}
		// Write only a meaningful move (>1% of nominal): the steady state
		// must not emit a retune event per tick.
		if diff := rate - ctl.rate; diff > ctl.nominal.Rate/100 || diff < -ctl.nominal.Rate/100 {
			ctl.rate = rate
			t, q := tm.Tenant, ctl.nominal
			q.Rate = rate
			writes = append(writes, write{
				apply: func() error { return c.eng.SetTenantQuota(t, q) },
				note:  fmt.Sprintf("ctl tenant %d rate=%.0f μ=%.2f", t, rate, ctl.mu),
			})
		}
	}
	return writes
}

// TenantRate returns the admission rate the loop currently has in effect
// for tenant, and whether the tenant is under quota control.
func (c *Controller) TenantRate(tenant packet.TenantID) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctl, ok := c.qctl[tenant]
	if !ok {
		return 0, false
	}
	return ctl.rate, true
}
