package exp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"newmad/internal/caps"
	"newmad/internal/control"
	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
)

// X6 — multi-tenant admission addendum (not a claim of the paper; added
// with the admission-control subsystem).
//
// Three tenants share one sending engine: two protected tenants offering
// steady traffic well inside their quotas, and a flooder that ramps to 10×
// its admitted rate mid-run. The properties under test are isolation and
// reaction: the flood must be absorbed at the admission edge (refusals,
// never queue growth stolen from other tenants), the protected tenants'
// p99 end-to-end latency must stay within 25% of a flood-free baseline of
// the identical protected schedule, the control loop's Lagrangian
// multiplier must demote the flooder within one control interval of the
// onset, and the delivery ledger must stay exactly-once — every admitted
// packet delivered once, every refusal explicit.

// X6 tenant cast. Tenant IDs are arbitrary but stable so the tables and
// the madbench JSON read the same run to run.
const (
	x6TenantA   = packet.TenantID(1) // protected
	x6TenantB   = packet.TenantID(2) // protected
	x6Flooder   = packet.TenantID(3)
	x6FloodGap  = 2 * simnet.Microsecond  // 500k pps offered — 10× the flooder's quota
	x6SteadyGap = 20 * simnet.Microsecond // 50k pps per protected tenant
	x6Interval  = 250 * simnet.Microsecond
)

// x6Quotas is the nominal quota table: protected tenants get headroom (4×
// their offered 50k pps), the flooder's sustained rate is 50k pps so its
// 500k pps ramp offers exactly 10× quota.
func x6Quotas() map[packet.TenantID]core.TenantQuota {
	return map[packet.TenantID]core.TenantQuota{
		x6TenantA: {Rate: 200e3, Burst: 64, Backlog: 512},
		x6TenantB: {Rate: 200e3, Burst: 64, Backlog: 512},
		x6Flooder: {Rate: 50e3, Burst: 32, Backlog: 256},
	}
}

// x6Shape sizes the run: messages per protected tenant, flood length, and
// the virtual flood onset.
func x6Shape(cfg Config) (steadyMsgs, floodMsgs int, onset simnet.Duration) {
	if cfg.Quick {
		return 200, 1000, 1 * simnet.Millisecond
	}
	return 500, 2500, 1 * simnet.Millisecond
}

// x6Phase is one boot-to-drain run: the protected schedule always, the
// flooder only when flood is set.
type x6Phase struct {
	// P99Us is the protected tenants' end-to-end p99 (virtual µs).
	P99Us map[packet.TenantID]float64
	// Offered/Admitted/Refused are per-tenant submission outcomes.
	Offered, Admitted, Refused map[packet.TenantID]int
	// Duplicates is the excess over exactly-once across all deliveries.
	Duplicates int
	// RetuneAfter is the delay from flood onset to the first flooder
	// quota demotion the engine applied (flood phase only).
	RetuneAfter simnet.Duration
	RetuneSeen  bool
	// FlooderRateEnd is the admission rate in effect for the flooder when
	// the run drained.
	FlooderRateEnd float64
}

func x6Run(cfg Config, flood bool) (x6Phase, error) {
	steadyMsgs, floodMsgs, onset := x6Shape(cfg)

	type key struct {
		flow packet.FlowID
		seq  int
	}
	var (
		rig       *Rig
		submitAt  = map[key]simnet.Time{}
		delivered = map[key]int{}
		latencies = map[packet.TenantID][]float64{}
		ph        = x6Phase{
			P99Us:    map[packet.TenantID]float64{},
			Offered:  map[packet.TenantID]int{},
			Admitted: map[packet.TenantID]int{},
			Refused:  map[packet.TenantID]int{},
		}
		admitted  int
		arrived   int
		submitErr error
	)
	tenantOf := map[packet.FlowID]packet.TenantID{
		11: x6TenantA, 12: x6TenantB, 13: x6Flooder,
	}

	rig, err := NewRig(RigOptions{
		Profiles: []caps.Caps{SingleChannel(caps.MX)},
		OnDeliver: func(node packet.NodeID, d proto.Deliverable) {
			if node != 1 {
				return
			}
			k := key{d.Pkt.Flow, d.Pkt.Seq}
			delivered[k]++
			if delivered[k] > 1 {
				ph.Duplicates++
				return
			}
			arrived++
			t := tenantOf[d.Pkt.Flow]
			lat := rig.Cl.Eng.Now().Sub(submitAt[k])
			latencies[t] = append(latencies[t], lat.Micros())
		},
	})
	if err != nil {
		return ph, err
	}

	// The flood-onset reaction gate reads the engine's own retune stream:
	// the first flooder demotion at or after the onset, timestamped on the
	// virtual clock the control ticks run on. The quota writes below land
	// before the onset and fall out of the filter.
	var retunes []core.RetuneEvent
	rig.Engines[0].SetRetuneObserver(func(ev core.RetuneEvent) {
		if ev.Knob == "tenant-quota" {
			retunes = append(retunes, ev)
		}
	})

	// The sender's quota table is the controller's nominal point: it
	// adopts every rate-limited tenant at Start.
	quotas := x6Quotas()
	for _, t := range []packet.TenantID{x6TenantA, x6TenantB, x6Flooder} {
		if err := rig.Engines[0].SetTenantQuota(t, quotas[t]); err != nil {
			return ph, err
		}
	}
	ctl, err := control.New(control.Options{
		Engine:   rig.Engines[0],
		Runtime:  rig.Cl.Eng,
		Interval: x6Interval,
	})
	if err != nil {
		return ph, err
	}
	if err := ctl.Start(); err != nil {
		return ph, err
	}
	defer ctl.Stop()

	// A refused submission must not consume a sequence number: admission
	// refusals happen before the packet enters the flow's sequence space,
	// so the caller retries under the same seq (DESIGN §10). Consuming one
	// anyway would leave the receiver's in-order reconstruction waiting on
	// a seq that never existed.
	nextSeq := map[packet.FlowID]int{}
	submit := func(flow packet.FlowID, tenant packet.TenantID) {
		seq := nextSeq[flow]
		p := message(flow, seq, 64, 0, 1)
		p.Tenant = tenant
		ph.Offered[tenant]++
		err := rig.Engines[0].Submit(p)
		switch {
		case err == nil:
			ph.Admitted[tenant]++
			admitted++
			nextSeq[flow]++
			submitAt[key{flow, seq}] = rig.Cl.Eng.Now()
		case errors.Is(err, core.ErrThrottled) || errors.Is(err, core.ErrQuotaExceeded):
			ph.Refused[tenant]++
		default:
			if submitErr == nil {
				submitErr = err
			}
		}
	}

	// Protected schedule: identical in both phases — the baseline and the
	// flood run differ only in the flooder's presence.
	for q := 0; q < steadyMsgs; q++ {
		at := simnet.Time(0).Add(simnet.Duration(q) * x6SteadyGap)
		rig.Cl.Eng.At(at, "x6.steady", func() {
			submit(11, x6TenantA)
			submit(12, x6TenantB)
		})
	}
	if flood {
		for q := 0; q < floodMsgs; q++ {
			at := simnet.Time(0).Add(onset + simnet.Duration(q)*x6FloodGap)
			rig.Cl.Eng.At(at, "x6.flood", func() {
				submit(13, x6Flooder)
			})
		}
	}

	// Run until every offered packet was admitted-and-delivered or refused.
	totalOffered := 2 * steadyMsgs
	if flood {
		totalOffered += floodMsgs
	}
	rig.stepUntil(func() bool {
		offered := 0
		for _, v := range ph.Offered {
			offered += v
		}
		return submitErr != nil || (offered == totalOffered && arrived == admitted)
	})
	if submitErr != nil {
		return ph, submitErr
	}
	if arrived != admitted {
		return ph, fmt.Errorf("exp: X6 ledger broken: %d admitted, %d arrived (silent drop)", admitted, arrived)
	}

	for t, samples := range latencies {
		sort.Float64s(samples)
		ph.P99Us[t] = samples[(len(samples)*99)/100]
	}
	if flood {
		onsetAt := simnet.Time(0).Add(onset)
		for _, ev := range retunes {
			if ev.At >= onsetAt && strings.Contains(ev.Note, "tenant=3 ") {
				ph.RetuneAfter = ev.At.Sub(onsetAt)
				ph.RetuneSeen = true
				break
			}
		}
	}
	ph.FlooderRateEnd, _ = ctl.TenantRate(x6Flooder)
	return ph, nil
}

// X6Result is both phases side by side.
type X6Result struct {
	Base, Flood x6Phase
	Interval    simnet.Duration
}

// X6Flood runs the baseline and the flood phases.
func X6Flood(cfg Config) (X6Result, error) {
	base, err := x6Run(cfg, false)
	if err != nil {
		return X6Result{}, err
	}
	flood, err := x6Run(cfg, true)
	if err != nil {
		return X6Result{}, err
	}
	return X6Result{Base: base, Flood: flood, Interval: x6Interval}, nil
}

func runX6(cfg Config) []*stats.Table {
	res := must(X6Flood(cfg))
	t := stats.NewTable("X6 — flood isolation: 3 tenants on one engine, flooder ramps to 10× quota (MX 1ch)",
		"tenant", "offered", "admitted", "refused", "base p99(µs)", "flood p99(µs)")
	retune := "no retune observed"
	if res.Flood.RetuneSeen {
		retune = fmt.Sprintf("flooder demoted %v after onset (interval %v)", res.Flood.RetuneAfter, res.Interval)
	}
	t.Caption = fmt.Sprintf("%s; flooder rate at drain %.0f pps", retune, res.Flood.FlooderRateEnd)
	summaries := make([]TenantSummary, 0, 3)
	for _, tn := range []packet.TenantID{x6TenantA, x6TenantB, x6Flooder} {
		name := fmt.Sprintf("tenant %d", tn)
		if tn == x6Flooder {
			name += " (flooder)"
		}
		t.AddRowf(name, res.Flood.Offered[tn], res.Flood.Admitted[tn], res.Flood.Refused[tn],
			res.Base.P99Us[tn], res.Flood.P99Us[tn])
		summaries = append(summaries, TenantSummary{
			Tenant:   uint8(tn),
			Offered:  uint64(res.Flood.Offered[tn]),
			Admitted: uint64(res.Flood.Admitted[tn]),
			Refused:  uint64(res.Flood.Refused[tn]),
			P99E2EUs: res.Flood.P99Us[tn],
		})
	}
	report("X6", func(r *Report) { r.Tenants = summaries })
	return []*stats.Table{t}
}
