// Package control closes the loop the paper leaves open: it watches a
// running optimizer engine through its metrics surface and retunes it as
// the observed traffic regime shifts: the strategy bundle (class→channel
// assignment) and the operating point beside it (strategy.Knobs: artificial
// delay and flush count, lookahead window, search budget, eager/rendezvous
// threshold), one swap each. The paper notes that "scheduling policies can
// be changed dynamically as application needs evolve"; this package
// supplies the component that decides *when*.
//
// One Controller runs per engine (per node). It samples the engine's
// Metrics() snapshot on a fixed period through the shared Runtime
// abstraction, so the same controller is deterministic under the
// discrete-event simulator (experiment E11) and live on the wall clock over
// real mesh sockets (internal/cluster's multi-rail soak).
//
// Each tick is one sample→signal→actuate pass over two loops: the regime
// loop (this file) picks the tuning, and the quota loop (quota.go) prices
// each tenant of the engine's admission table. Both decide under the
// controller's lock and return the engine writes they chose; the tick
// applies them in order, regime first, and records each on the trace as a
// policy event. The engine counts every write itself
// (core.policy_switches, core.tenant_retunes).
//
// Two mechanisms damp the adjustment cost that Henzinger et al. identify
// for weight-dynamic reoptimization of the regime:
//
//   - hysteresis: a regime change must be observed on Confirm consecutive
//     samples before the controller acts, so a single burst or lull cannot
//     flip the policy; and
//   - cooldown: after a retune, further retunes are suppressed for a fixed
//     window, bounding the retune frequency regardless of how noisy the
//     evidence is.
//
// Every regime decision is also kept, with the Signals that triggered it,
// in an inspectable decision log.
package control

import (
	"fmt"
	"sync"

	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// Mode is a traffic regime the controller can recognize. Each mode maps to
// a named strategy.Tuning; the built-in mapping uses the registry's
// "latency", "balanced" and "throughput" operating points.
type Mode string

// The recognized regimes.
const (
	// ModeLatency: sparse, reaction-bound traffic (request-response);
	// artificial delay is pure cost.
	ModeLatency Mode = "latency"
	// ModeBalanced: no strong signal either way; the compromise point.
	ModeBalanced Mode = "balanced"
	// ModeThroughput: dense or backlogged traffic; aggregation pays.
	ModeThroughput Mode = "throughput"
)

// Options configures a Controller.
type Options struct {
	// Engine is the optimizer under control (required).
	Engine *core.Engine
	// Runtime supplies time and timers; use the engine's runtime (required).
	Runtime simnet.Runtime

	// Interval is the sampling period (default 10 µs of virtual time;
	// wall-clock deployments pass milliseconds).
	Interval simnet.Duration
	// HalfLife smooths the arrival-rate EWMA (default 4×Interval).
	HalfLife simnet.Duration
	// Confirm is how many consecutive samples must agree on a new regime
	// before the controller retunes (default 3; minimum 1).
	Confirm int
	// Cooldown suppresses further retunes after one fires (default
	// 20×Interval).
	Cooldown simnet.Duration

	// HiRate/LoRate split the arrival-rate axis (packets/second): above
	// HiRate the regime reads as throughput, below LoRate as latency, and
	// the band between is hysteresis (hold the current mode). Defaults
	// target the simulated profiles: 1e6 and 400e3. A waiting list of
	// deepBacklog packets reads as throughput whatever the arrival rate.
	HiRate, LoRate float64

	// Tunings maps each mode to a registered tuning name; defaults to the
	// built-in registry points ("latency", "balanced", "throughput").
	// Start applies the balanced mode's tuning.
	Tunings map[Mode]string

	// The quota loop has no option: it controls every tenant with a
	// positive rate in the engine's quota table at Start (quota.go).

	// Trace, when non-nil, records every engine write as a policy event.
	Trace *trace.Recorder
	// Stats receives the counters control.samples, control.holds and
	// control.cooldown_blocks; nil allocates a private set.
	Stats *stats.Set
}

// Signals is the controller's evidence: exactly the two quantities classify
// decides on. Every retune decision carries the Signals that triggered it,
// so the decision log (Decisions) reads as "what the controller saw" rather
// than "what it did".
type Signals struct {
	// ArrivalPerSec is the smoothed packet submission rate.
	ArrivalPerSec float64
	// Backlog is the waiting-list depth at the latest sample (raw, not
	// smoothed: regime confirmation across consecutive samples provides the
	// damping).
	Backlog int
}

func (s Signals) String() string {
	return fmt.Sprintf("rate=%.0f/s backlog=%d", s.ArrivalPerSec, s.Backlog)
}

// Decision is one applied retune, with the evidence that triggered it.
type Decision struct {
	// At is when the retune was applied.
	At simnet.Time
	// From/To are the tuning names switched between.
	From, To string
	// Evidence is the signal snapshot that confirmed the regime change.
	Evidence Signals
}

func (d Decision) String() string {
	return fmt.Sprintf("%v %s→%s [%s]", d.At, d.From, d.To, d.Evidence)
}

// Controller is the per-node feedback loop.
type Controller struct {
	eng *core.Engine
	rt  simnet.Runtime
	o   Options

	// Counter handles into set, resolved once.
	cSamples, cHolds, cCooldownBlocks *stats.Counter

	// tickMu is held for the whole of Start and of each tick; Stop
	// acquires it after setting closed, so Stop returning guarantees
	// neither will touch the engine afterwards (wall-clock timer
	// cancellation is a no-op for an already-running callback).
	tickMu sync.Mutex

	// scratch is the MetricsInto snapshot Start and each tick refill,
	// guarded by tickMu. At 1000-node testnet scale this is what
	// removes the two slice allocations per node per sample.
	scratch core.Metrics

	mu        sync.Mutex
	rate      *stats.RateMeter // the arrival rate, from Submitted
	mode      Mode
	pending   Mode // candidate regime accumulating confirmation
	streak    int
	last      simnet.Time // time of the last applied retune
	retuned   bool        // whether any retune was ever applied
	decisions []Decision
	tunings   map[Mode]strategy.Tuning
	cancel    simnet.CancelFunc
	running   bool
	closed    bool

	// Quota-loop state (quota.go), guarded by mu.
	qctl map[packet.TenantID]*tenantCtl
}

// New validates the options and builds a controller. The engine is not
// touched until Start.
func New(o Options) (*Controller, error) {
	if o.Engine == nil {
		return nil, fmt.Errorf("control: Options.Engine is required")
	}
	if o.Runtime == nil {
		return nil, fmt.Errorf("control: Options.Runtime is required")
	}
	if o.Interval <= 0 {
		o.Interval = 10 * simnet.Microsecond
	}
	if o.HalfLife <= 0 {
		o.HalfLife = 4 * o.Interval
	}
	if o.Confirm < 1 {
		o.Confirm = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 20 * o.Interval
	}
	if o.HiRate <= 0 {
		o.HiRate = 1e6
	}
	if o.LoRate <= 0 {
		o.LoRate = 400e3
	}
	if o.LoRate >= o.HiRate {
		return nil, fmt.Errorf("control: LoRate %.0f must be below HiRate %.0f (the band between is the hysteresis)", o.LoRate, o.HiRate)
	}
	names := map[Mode]string{
		ModeLatency:    "latency",
		ModeBalanced:   "balanced",
		ModeThroughput: "throughput",
	}
	for m, n := range o.Tunings {
		names[m] = n
	}
	tunings := make(map[Mode]strategy.Tuning, len(names))
	for m, n := range names {
		t, err := strategy.TuningByName(n)
		if err != nil {
			return nil, fmt.Errorf("control: mode %s: %w", m, err)
		}
		tunings[m] = t
	}
	set := o.Stats
	if set == nil {
		set = &stats.Set{}
	}
	return &Controller{
		eng: o.Engine,
		rt:  o.Runtime,
		o:   o,

		cSamples:        set.Counter("control.samples"),
		cHolds:          set.Counter("control.holds"),
		cCooldownBlocks: set.Counter("control.cooldown_blocks"),

		rate:    stats.NewRateMeter(int64(o.HalfLife)),
		mode:    ModeBalanced,
		tunings: tunings,
	}, nil
}

// Start applies the balanced mode's tuning, adopts the engine's quota
// table as the quota loop's nominal points, and begins sampling. Starting
// a started or stopped controller is an error.
func (c *Controller) Start() error {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("control: controller stopped")
	}
	if c.running {
		c.mu.Unlock()
		return fmt.Errorf("control: controller already started")
	}
	c.running = true
	tune := c.tunings[c.mode]
	c.mu.Unlock()

	// The initial application establishes a known operating point; it is
	// configuration, not a decision, so it does not enter the log.
	if err := Apply(c.eng, tune); err != nil {
		panic(err)
	}
	m := &c.scratch
	c.eng.MetricsInto(m)
	c.mu.Lock()
	c.quotaStart(m)
	if !c.closed {
		c.cancel = c.rt.Schedule(c.o.Interval, "control.tick", c.tick)
	}
	c.mu.Unlock()
	return nil
}

// Stop halts sampling and waits out any tick already in flight: once Stop
// returns, the engine keeps the last applied tuning and is no longer
// touched. Stop is idempotent; do not call it from inside an engine retune
// observer (the in-flight Start or tick the observer runs under would
// deadlock the barrier).
func (c *Controller) Stop() {
	c.mu.Lock()
	c.closed = true
	cancel := c.cancel
	c.cancel = nil
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	// Barrier: a Start, or a tick past its top closed-check, completes
	// before we return; the closed flag stops either from scheduling.
	c.tickMu.Lock()
	//lint:ignore SA2001 the empty critical section is the point: the acquire waits out the in-flight tick
	c.tickMu.Unlock()
}

// Decisions returns the applied retunes, oldest first.
func (c *Controller) Decisions() []Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Decision(nil), c.decisions...)
}

// write is one engine write a loop decided on under mu: tick applies it
// once mu is released and records note on the trace as a policy event.
type write struct {
	apply func() error
	note  string
}

// tick is one pass of the loop: sample, let each loop decide under mu,
// apply what they decided, reschedule.
func (c *Controller) tick() {
	c.tickMu.Lock()
	defer c.tickMu.Unlock()

	// Check closed before touching the engine at all: a wall-clock timer
	// that fired but had not reached the barrier when Stop ran must not
	// read a possibly-tearing-down engine.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()

	m := &c.scratch
	c.eng.MetricsInto(m)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.rate.Observe(m.Submitted, int64(m.Now))
	c.cSamples.Inc()
	writes := c.quotaStep(m, c.regimeStep(m, Signals{ArrivalPerSec: c.rate.PerSecond(), Backlog: m.Backlog}))
	c.mu.Unlock()

	// Tunings were validated against the bundle registry at New and quotas
	// are never negative, so a failed write is a programming error (say, a
	// bundle unregistered mid-run) worth crashing on.
	for _, w := range writes {
		if err := w.apply(); err != nil {
			panic(err)
		}
		c.o.Trace.Record(trace.Event{At: m.Now, Kind: trace.KindPolicy, Node: c.eng.Node(), Note: w.note})
	}

	c.mu.Lock()
	if !c.closed {
		c.cancel = c.rt.Schedule(c.o.Interval, "control.tick", c.tick)
	}
	c.mu.Unlock()
}

// regimeStep runs the regime loop on one sample: classify, then retune
// only once Confirm samples agree and the cooldown has passed. It returns
// the retune it decided, if any. Called under mu.
func (c *Controller) regimeStep(m *core.Metrics, sig Signals) []write {
	want := c.classify(sig)
	if want == c.mode {
		c.pending, c.streak = "", 0
		return nil
	}
	if want == c.pending {
		c.streak++
	} else {
		c.pending, c.streak = want, 1
	}
	switch {
	case c.streak < c.o.Confirm:
		// Hysteresis: not yet confirmed.
		c.cHolds.Inc()
		return nil
	case c.retuned && m.Now.Sub(c.last) < c.o.Cooldown:
		// Cooldown: confirmed but too soon after the last retune.
		c.cCooldownBlocks.Inc()
		return nil
	}
	d := Decision{At: m.Now, From: string(c.mode), To: string(want), Evidence: sig}
	c.decisions = append(c.decisions, d)
	c.mode = want
	c.pending, c.streak = "", 0
	c.last, c.retuned = m.Now, true
	tune := c.tunings[want]
	return []write{{
		apply: func() error { return Apply(c.eng, tune) },
		note:  fmt.Sprintf("ctl %s→%s %s", d.From, d.To, d.Evidence),
	}}
}

// classify maps evidence to a desired regime. The band between LoRate and
// HiRate holds the current mode (rate hysteresis); a deep backlog reads as
// throughput pressure regardless of the arrival rate.
func (c *Controller) classify(sig Signals) Mode {
	if sig.Backlog >= deepBacklog {
		return ModeThroughput
	}
	switch {
	case sig.ArrivalPerSec >= c.o.HiRate:
		return ModeThroughput
	case sig.ArrivalPerSec <= c.o.LoRate:
		return ModeLatency
	default:
		return c.mode
	}
}

// Apply moves eng to the tuning: SetBundle, then SetKnobs — one bundle swap
// and one knob swap. Bundle instantiation happens per application so
// stateful policies (adaptive classes) start fresh in the new regime.
// Exported so experiment harnesses configure their static baselines
// through the exact sequence the controller uses.
func Apply(eng *core.Engine, t strategy.Tuning) error {
	b, err := strategy.New(t.Bundle)
	if err != nil {
		return fmt.Errorf("control: tuning %q: %w", t.Name, err)
	}
	// The rail policy is topology-bound, not regime-bound: a multi-rail
	// node's strategy.ScheduledRail is built from the node's physical rail
	// records, which no registry bundle knows about. Preserve it across the
	// bundle swap — otherwise the first retune would silently evict the
	// scheduler for the registry default.
	if cur, ok := eng.Bundle().Rail.(*strategy.ScheduledRail); ok {
		b.Rail = cur
	}
	if err := eng.SetBundle(b); err != nil {
		return fmt.Errorf("control: tuning %q: %w", t.Name, err)
	}
	if err := eng.SetKnobs(t.Knobs); err != nil {
		return fmt.Errorf("control: tuning %q: %w", t.Name, err)
	}
	return nil
}
