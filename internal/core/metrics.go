package core

import (
	"fmt"
	"reflect"

	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// The engine's one metrics path. Every event is counted once, in engine-
// private storage: one Counters under the mu the caller already holds, and
// a few engine atomics. MetricsInto copies that storage into a Metrics
// snapshot — what
// controllers and telemetry read, so a controller watching one node never
// sees a neighbour's traffic in its evidence. The `set` struct tags are the
// one name table: the engine's stats.Set serves a snapshot under those
// names at read time (serve), and telemetry names node and fleet from it.

// Counters is the event tally since construction; Metrics embeds a copy.
type Counters struct {
	Submitted      uint64 `set:"core.submitted"`
	SubmittedBytes uint64 `set:"core.submitted_bytes"`
	SubmittedCtrl  uint64 // control-class submissions (class mix evidence)
	EagerBytes     uint64 // bytes routed eager at submission
	RdvBytes       uint64 // bytes routed rendezvous at submission
	FramesPosted   uint64 `set:"core.frames_posted"`
	PacketsSent    uint64 `set:"core.packets_sent"`
	Delivered      uint64 `set:"core.delivered"`
	DeliveredBytes uint64 `set:"core.delivered_bytes"`
	Aggregates     uint64 `set:"core.aggregates"` // frames carrying more than one packet
	// AggregatedPackets counts the packets those frames carried;
	// ReactiveFrames the frames the protocol engines queued (CTS, bulk, ...).
	AggregatedPackets uint64 `set:"core.aggregated_packets"`
	ReactiveFrames    uint64 `set:"core.reactive_frames"`
	RdvStarted        uint64 `set:"core.rdv_started"`
	RdvGranted        uint64 `set:"core.rdv_granted"`
	RdvRetries        uint64 `set:"core.rdv_retries"` // RTS retries fired
	RMAPuts           uint64 `set:"core.rma_puts"`
	RMAGets           uint64 `set:"core.rma_gets"`
	NagleFires        uint64 `set:"core.nagle_flushes"` // artificial delays that ran to their timer
	NagleEarly        uint64 // artificial delays cut short by backlog pressure or Flush

	// Resilience surface: what the failure machinery has been doing.
	FramesReclaimed uint64 `set:"core.frames_reclaimed"` // frames handed back by failing rails
	Failovers       uint64 `set:"core.failovers"`        // reclaimed/refused frames re-posted on a live rail
	PeerDownPosts   uint64 `set:"core.peer_down_posts"`  // posts a rail refused with ErrPeerDown
}

// Metrics is a point-in-time snapshot of one engine: queue depths, activity
// counters since construction, and the runtime tuning currently in effect.
// Rates and ratios are left to the observer (internal/control smooths the
// arrival rate from Submitted); the engine reports only exact totals.
type Metrics struct {
	// Now is the engine clock at snapshot time.
	Now simnet.Time

	// Queue depths at snapshot time; BacklogPeak is Backlog's high-water
	// mark (the core.backlog_peak gauge).
	Backlog        int
	CtrlQueued     int
	BulkQueued     int
	FailoverQueued int // frames still waiting for any rail to their peer
	BacklogPeak    uint64

	Counters
	IdleUpcalls uint64 `set:"core.idle_upcalls"` // scheduler activations

	// Retune activity: knob changes applied.
	PolicySwitches uint64 `set:"core.policy_switches"`
	TenantRetunes  uint64 `set:"core.tenant_retunes"`

	// RailFrames is the per-rail frame count and RailDowns the per-rail
	// peer-down events, indexed like Rails().
	RailFrames []uint64
	RailDowns  []uint64

	// Tenants is the per-tenant admission surface, one entry per tenant
	// with admission state, ordered by tenant id. Empty when the engine
	// has no quota table. The controller's quota multiplier loop reads
	// backlog pressure from here; telemetry exports it per node and rolls
	// it up per fleet. The two totals sum its refusals.
	Tenants         []TenantMetrics
	TenantThrottled uint64 `set:"core.tenant_throttled"`
	TenantOverQuota uint64 `set:"core.tenant_over_quota"`

	// The operating point and bundle in effect.
	strategy.Knobs
	Bundle string
}

// TenantMetrics is one tenant's slice of the admission surface: the quota
// in effect, the live backlog charge, and the admit/refuse tallies since
// the tenant was configured.
type TenantMetrics struct {
	Tenant    packet.TenantID
	Submitted uint64 // packets admitted
	Throttled uint64 // rate refusals (ErrThrottled)
	OverQuota uint64 // backlog-quota refusals (ErrQuotaExceeded)
	Backlog   int64  // eager packets admitted and not yet planned

	// Quota echo, so observers see rate limit and pressure in one row.
	RatePPS      float64
	Burst        int
	BacklogQuota int
}

// Metrics returns a consistent snapshot of the engine's observation surface.
func (e *Engine) Metrics() Metrics {
	var m Metrics
	e.MetricsInto(&m)
	return m
}

// MetricsInto fills m with a snapshot, reusing m's RailFrames and RailDowns
// backing arrays when they have capacity. Samplers that snapshot every node
// per tick (internal/control, the testnet's telemetry sweep) hold one
// scratch Metrics per engine and pay zero allocations per sample;
// Metrics() is the convenience form for one-shot callers. The slices are
// overwritten in place, so a caller that keeps a previous snapshot needs a
// second scratch value.
//
// The queues and counters are one atomic cut, read in one critical section
// under mu; the lock-free tallies (idle upcalls, backlog peak, retunes,
// tenants) are read beside it.
func (e *Engine) MetricsInto(m *Metrics) {
	*m = Metrics{
		Now:            e.rt.Now(),
		IdleUpcalls:    e.idleUps.Load(),
		BacklogPeak:    uint64(e.backlogPeak.Load()),
		PolicySwitches: e.policySwitches.Load(),
		TenantRetunes:  e.tenantRetunes.Load(),
		RailFrames:     m.RailFrames[:0],
		RailDowns:      m.RailDowns[:0],
		Tenants:        m.Tenants[:0],
		Knobs:          *e.knobs.Load(),
		Bundle:         e.bundle.Load().Name,
	}
	e.mu.Lock()
	m.Backlog = e.backlog.size
	m.CtrlQueued = len(e.ctrlQ)
	m.BulkQueued = len(e.bulkQ)
	m.FailoverQueued = len(e.failQ)
	m.Counters = e.ctr
	m.RailFrames = append(m.RailFrames, e.railFrames...)
	m.RailDowns = append(m.RailDowns, e.railDowns...)
	e.mu.Unlock()
	if a := e.adm.Load(); a != nil {
		for _, ts := range a.states {
			if ts == nil {
				continue
			}
			q := ts.quota.Load()
			tm := TenantMetrics{
				Tenant:       ts.id,
				Submitted:    ts.submitted.Load(),
				Throttled:    ts.throttled.Load(),
				OverQuota:    ts.overQuota.Load(),
				Backlog:      ts.backlog.Load(),
				RatePPS:      q.Rate,
				Burst:        q.Burst,
				BacklogQuota: q.Backlog,
			}
			m.Tenants = append(m.Tenants, tm)
			m.TenantThrottled += tm.Throttled
			m.TenantOverQuota += tm.OverQuota
		}
	}
}

// setField is a `set` tag and the index path of the field it names.
type setField struct {
	name  string
	index []int
}

// setFields is the one name table, read from Metrics' `set` tags once, in
// field order, embedded structs included.
var setFields = func() (out []setField) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Metrics{})) {
		if name := f.Tag.Get("set"); name != "" {
			out = append(out, setField{name, f.Index})
		}
	}
	return out
}()

// Each reports every named quantity in m, in stats.Reader form. Telemetry
// renders node and fleet from it, so a scrape, a fleet and a Set read agree.
func (m *Metrics) Each(counter func(name string, v uint64), gauge func(name string, v float64)) {
	v := reflect.ValueOf(m).Elem()
	for _, f := range setFields {
		counter(f.name, v.FieldByIndex(f.index).Uint())
	}
	var downs uint64
	for _, d := range m.RailDowns {
		downs += d
	}
	counter("core.rail_peer_downs", downs)
	gauge("core.backlog_peak", float64(m.BacklogPeak))
	gauge("core.backlog", float64(m.Backlog))
	gauge("core.failover_queued", float64(m.FailoverQueued))
}

// NewTotals returns a stats.Totals sized for the names Each reports (the
// tagged fields plus core.rail_peer_downs, and three gauges), so summing
// engines into it never regrows its maps.
func NewTotals() stats.Totals {
	return stats.Totals{
		Counters: make(map[string]uint64, len(setFields)+1),
		Gauges:   make(map[string]float64, 3),
	}
}

// serve is the engine's stats.Reader: a fresh snapshot by name, plus the
// per-rail frame counters. The Set calls it outside its own mutex
// (MetricsInto takes mu).
func (e *Engine) serve(counter func(name string, v uint64), gauge func(name string, v float64)) {
	var m Metrics
	e.MetricsInto(&m)
	m.Each(counter, gauge)
	for i, v := range m.RailFrames {
		counter(fmt.Sprintf("core.rail.%s.frames", e.rails[i].Caps().Name), v)
	}
}

// RetuneEvent describes one runtime tuning change, delivered to the
// engine's retune observer: which knob moved and how.
type RetuneEvent struct {
	At   simnet.Time
	Knob string // "bundle", "tuning" (SetKnobs) or "tenant-quota"
	Note string // "name=value" pairs: the bundle, the knobs that moved, the quota
}

// SetRetuneObserver installs fn to be called after every runtime tuning
// change (SetBundle, SetKnobs, SetTenantQuota). Pass nil to remove it.
// The observer runs outside the engine locks and may call back into the
// engine.
func (e *Engine) SetRetuneObserver(fn func(RetuneEvent)) {
	e.mu.Lock()
	e.retuneObs = fn
	e.mu.Unlock()
}

// retuneObserver reads the installed observer under mu.
func (e *Engine) retuneObserver() func(RetuneEvent) {
	e.mu.Lock()
	obs := e.retuneObs
	e.mu.Unlock()
	return obs
}

// notifyRetune records the change on the trace and invokes the observer.
// Call without holding any engine lock.
func (e *Engine) notifyRetune(ev RetuneEvent) {
	e.rec.Record(trace.Event{At: ev.At, Kind: trace.KindPolicy, Node: e.node, Note: ev.Note})
	if obs := e.retuneObserver(); obs != nil {
		obs(ev)
	}
}
