// Package exp is the benchmark harness: one module per experiment in the
// reproduction plan (DESIGN.md §4), each regenerating the table or series
// that substantiates one claim of the paper. cmd/madbench prints them; the
// tests in this package assert the *shape* of each result (who wins, roughly
// by how much), which is the reproduction's acceptance criterion, and pin
// every deterministic table byte for byte (testdata/catalog.golden).
//
// A simulated experiment is a scale (its full/quick sizes, stated once), a
// Point per table cell (what varies: rig options, a policy override, the
// flows) run by RunPoint, a table, and an exported oracle the shape test
// reads — table and oracle go through the same scale and the same point.
package exp

import (
	"fmt"
	"sync"
	"time"

	"newmad/internal/caps"
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/trace"
	"newmad/internal/workload"
)

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks workloads for unit tests and -short mode.
	Quick bool
	// Seed feeds every RNG in the run.
	Seed uint64
}

// Experiment is one reproducible result.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper statement this experiment substantiates
	Run   func(cfg Config) []*stats.Table
}

// catalog lists the experiments in presentation order — the paper's
// E-series, then the addenda (X-series). Source order is the order All
// returns; adding an experiment is adding a line here.
var catalog = []Experiment{
	{ID: "E1", Run: runE1,
		Title: "Cross-flow aggregation of eager segments vs previous Madeleine",
		Claim: "§4: aggregating eager segments from several independent flows brings huge gains"},
	{ID: "E2", Run: runE2,
		Title: "Packet lookahead window size sweep",
		Claim: "§4 future work: effect of the lookahead window on optimization quality"},
	{ID: "E3", Run: runE3,
		Title: "Nagle-style artificial delay sweep",
		Claim: "§3: a short artificial delay increases aggregation potential under sparse traffic"},
	{ID: "E4", Run: runE4,
		Title: "Dynamic load balancing over multiple NICs and technologies",
		Claim: "§2: pooling multiplexing resources beats static one-to-one flow mapping"},
	{ID: "E5", Run: runE5,
		Title: "Traffic classes on dedicated channels",
		Claim: "§2: class-to-channel assignment protects control latency under bulk load"},
	{ID: "E6", Run: runE6,
		Title: "Bounding the rearrangement search budget",
		Claim: "§4 future work: bound the number of rearrangements evaluated per decision"},
	{ID: "E7", Run: runE7,
		Title: "Optimization parameterized by driver capabilities",
		Claim: "§1: decisions follow the driver capability record (gather/copy, PIO/DMA, limits)"},
	{ID: "E8", Run: runE8,
		Title: "Eager/rendezvous protocol selection across message sizes",
		Claim: "§1: per-message protocol choice; threshold follows the driver profile"},
	{ID: "E9", Run: runE9,
		Title: "Middleware conglomerate (MPI + RPC + DSM concurrently)",
		Claim: "§1–2: concurrent flows from stacked middlewares benefit from cross-flow scheduling"},
	{ID: "E10", Run: runE10,
		Title: "Dynamic re-assignment of channels to traffic classes",
		Claim: "§2: resources re-assigned to classes as application phases change"},
	{ID: "E11", Run: runE11,
		Title: "Closed-loop adaptive retuning across application phases",
		Claim: "§2 + controller addendum: a feedback controller re-tunes delay/lookahead/policy as phases alternate, beating every static operating point end-to-end"},
	{ID: "X1", Run: runX1,
		Title: "WAN addendum: aggregation over an emulated wide-area path",
		Claim: "reproduction brief: engine behaviour on an emulated WAN (not in the paper)"},
	{ID: "X2", Run: runX2,
		Title: "mesh addendum: real TCP mesh sockets vs the virtual-time model",
		Claim: "reproduction brief: the optimizer's transaction accounting carries over from the simulated fabric to a real N-node transport (not in the paper)"},
	{ID: "X4", Run: runX4,
		Title: "multi-rail addendum: capability-aware rail striping over real TCP sockets",
		Claim: "reproduction brief: striping bulk transfers across N real TCP rails beats a single rail on wall-clock conglomerate throughput (not in the paper)"},
	{ID: "X6", Run: runX6,
		Title: "flood isolation: per-tenant admission control under a 10× flooder",
		Claim: "admission addendum: token-bucket + backlog quotas shed a flooding tenant at Submit while protected tenants hold p99 within 25% of the no-flood baseline (not in the paper)"},
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range catalog {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns the experiments in catalog order: the paper's E-series by
// number, then the addenda (X-series).
func All() []Experiment { return append([]Experiment(nil), catalog...) }

// Report is what an experiment's last run recorded beside its tables;
// cmd/madbench embeds it in its machine-readable output, so the json tags
// are the madbench schema. Experiments that run several variants write once
// per variant; the last write (by convention the full engine) is what is
// exported.
type Report struct {
	// Decisions counts the retunes the run's controllers applied (E11).
	Decisions uint64 `json:"controller_decisions,omitempty"`
	// Latency is the run's delivery-latency digest; nil when the
	// experiment reported none.
	Latency *LatencySummary `json:"latency,omitempty"`
	// Tenants holds per-tenant admission outcomes (X6).
	Tenants []TenantSummary `json:"tenants,omitempty"`
}

var (
	reportMu sync.Mutex
	reports  = map[string]*Report{}
)

// report updates experiment id's record.
func report(id string, update func(*Report)) {
	reportMu.Lock()
	defer reportMu.Unlock()
	r := reports[id]
	if r == nil {
		r = &Report{}
		reports[id] = r
	}
	update(r)
}

// ReportOf returns the record of the experiment's last run (zero for an
// experiment that recorded nothing).
func ReportOf(id string) Report {
	reportMu.Lock()
	defer reportMu.Unlock()
	if r := reports[id]; r != nil {
		return *r
	}
	return Report{}
}

// LatencySummary is one run's delivery-latency digest: the end-to-end
// span (submit→deliver; eager deliveries only — rendezvous payloads are
// reconstructed at the receiver without the submit stamp) and the
// queue-wait span (submit→first post attempt), merged across every
// engine in the run. The two halves are embedded so their fields read
// flat in Go (s.QwaitCount) and nest in JSON ("queue_wait": {"count": …}).
type LatencySummary struct {
	E2EQuantiles   `json:"e2e"`
	QwaitQuantiles `json:"queue_wait"`
}

// E2EQuantiles is the end-to-end half of a LatencySummary: sample count
// plus µs quantiles.
type E2EQuantiles struct {
	E2ECount uint64  `json:"count"`
	E2EP50Us float64 `json:"p50_us"`
	E2EP95Us float64 `json:"p95_us"`
	E2EP99Us float64 `json:"p99_us"`
}

// QwaitQuantiles is the queue-wait half of a LatencySummary.
type QwaitQuantiles struct {
	QwaitCount uint64  `json:"count"`
	QwaitP50Us float64 `json:"p50_us"`
	QwaitP95Us float64 `json:"p95_us"`
	QwaitP99Us float64 `json:"p99_us"`
}

// reportLatency records the digest of two merged span histograms
// (nanosecond samples) as microsecond quantiles.
func reportLatency(id string, e2e, qwait *stats.Histogram) {
	q := func(h *stats.Histogram, p float64) float64 { return h.Quantile(p) / 1e3 }
	report(id, func(r *Report) {
		r.Latency = &LatencySummary{
			E2EQuantiles{e2e.Count(), q(e2e, 0.50), q(e2e, 0.95), q(e2e, 0.99)},
			QwaitQuantiles{qwait.Count(), q(qwait, 0.50), q(qwait, 0.95), q(qwait, 0.99)},
		}
	})
}

// TenantSummary is one tenant's admission outcome in an experiment's final
// run: submissions offered, the split into admitted and refused (refusals
// are explicit typed errors, never silent drops), and the tenant's
// end-to-end p99 over its delivered packets (0 when nothing delivered).
type TenantSummary struct {
	Tenant   uint8   `json:"tenant"`
	Offered  uint64  `json:"offered"`
	Admitted uint64  `json:"admitted"`
	Refused  uint64  `json:"refused"`
	P99E2EUs float64 `json:"p99_e2e_us"`
}

// must unwraps a result on the paths that have no error return (tables and
// oracles): an experiment that cannot run is a bug in the catalog.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// Rig is a ready-to-run simulated cluster with one engine (and optionally
// one mad session) per node.
type Rig struct {
	Cl       *drivers.Cluster
	Engines  map[packet.NodeID]*core.Engine
	Sessions map[packet.NodeID]*mad.Session
	// Delivered counts per node.
	Delivered map[packet.NodeID]int

	id string // experiment ID for latency reporting (RigOptions.ID)
}

// RigOptions configures rig construction.
type RigOptions struct {
	// ID, when set, makes every Run report its merged latency-span
	// quantiles under this experiment ID (see Latency).
	ID string

	Nodes    int
	Profiles []caps.Caps // default: single-channel MX
	Bundle   string      // default "aggregate"

	// Knobs is every engine's operating point.
	strategy.Knobs

	// WithSessions routes deliveries into mad sessions (middleware-driven
	// experiments). Raw packet workloads leave it false: their synthetic
	// flow ids do not correspond to mad channels.
	WithSessions bool

	// OnDeliver, when set, observes every delivery (after counting).
	OnDeliver func(node packet.NodeID, d proto.Deliverable)

	// Trace, when non-nil, records every engine's decision timeline.
	Trace *trace.Recorder
}

// SingleChannel returns profile c restricted to one send channel, the
// configuration that exposes backlog dynamics most clearly.
func SingleChannel(c caps.Caps) caps.Caps {
	c.Channels = 1
	return c
}

// NewRig builds the cluster and engines.
func NewRig(o RigOptions) (*Rig, error) {
	if o.Nodes < 2 {
		o.Nodes = 2
	}
	if len(o.Profiles) == 0 {
		o.Profiles = []caps.Caps{SingleChannel(caps.MX)}
	}
	if o.Bundle == "" {
		o.Bundle = "aggregate"
	}
	cl, err := drivers.NewCluster(o.Nodes, o.Profiles...)
	if err != nil {
		return nil, err
	}
	r := &Rig{
		Cl:        cl,
		Engines:   make(map[packet.NodeID]*core.Engine),
		Sessions:  make(map[packet.NodeID]*mad.Session),
		Delivered: make(map[packet.NodeID]int),
		id:        o.ID,
	}
	for n := 0; n < o.Nodes; n++ {
		node := packet.NodeID(n)
		b, err := strategy.New(o.Bundle)
		if err != nil {
			return nil, err
		}
		var rails []drivers.Driver
		for _, d := range cl.NodeDrivers(node) {
			rails = append(rails, d)
		}
		sess, err := mad.Bind(node, func(deliver proto.DeliverFunc) (*core.Engine, error) {
			wrapped := func(d proto.Deliverable) {
				r.Delivered[node]++
				if o.OnDeliver != nil {
					o.OnDeliver(node, d)
				}
				if o.WithSessions {
					deliver(d)
				}
			}
			return core.New(node, core.Options{
				Bundle:  b,
				Runtime: cl.Eng,
				Rails:   rails,
				Deliver: wrapped,
				Knobs:   o.Knobs,
				Stats:   cl.Stats,
				Trace:   o.Trace,
			})
		})
		if err != nil {
			return nil, err
		}
		r.Engines[node] = sess.Engine()
		r.Sessions[node] = sess
	}
	return r, nil
}

// Point is one simulated measurement — what varies between the cells of an
// experiment's table: how the rig is built, an optional policy override,
// and the flows fed through it.
type Point struct {
	RigOptions

	// Classes, Protocol and Rail, when set, replace that policy in one fresh
	// copy of the rig's bundle, installed on every engine with SetBundle
	// *after* the engines exist: the install is a policy switch the engine
	// counts and pumps on, which folding it into core.Options.Bundle would
	// skip.
	Classes  strategy.ClassPolicy
	Protocol strategy.ProtocolPolicy
	Rail     strategy.RailPolicy

	// Flows feed one workload.Driver in slice order. The order is part of
	// the seed (Driver.Add forks the driver RNG once per call), and a
	// stateful *workload.Bursts arrival must not be shared between flows
	// (Fan clones it).
	Flows []workload.FlowSpec
}

// Fan returns n copies of spec on flow IDs 1..n, each with its own burst
// counter when the arrival process is stateful.
func Fan(n int, spec workload.FlowSpec) []workload.FlowSpec {
	out := make([]workload.FlowSpec, n)
	for i := range out {
		out[i] = spec
		out[i].Flow = packet.FlowID(i + 1)
		if b, ok := spec.Arrival.(*workload.Bursts); ok {
			out[i].Arrival = b.Clone()
		}
	}
	return out
}

// RunPoint boots p's rig, installs the policy override, feeds the flows and
// runs to quiescence; every submitted packet must have been delivered.
func RunPoint(p Point, seed uint64) (Metrics, *Rig, error) {
	rig, err := NewRig(p.RigOptions)
	if err != nil {
		return Metrics{}, nil, err
	}
	if p.Classes != nil || p.Protocol != nil || p.Rail != nil {
		b, err := strategy.New(rig.Engines[0].Bundle().Name)
		if err != nil {
			return Metrics{}, nil, err
		}
		if p.Classes != nil {
			b.Classes = p.Classes
		}
		if p.Protocol != nil {
			b.Protocol = p.Protocol
		}
		if p.Rail != nil {
			b.Rail = p.Rail
		}
		for n := 0; n < len(rig.Engines); n++ {
			if err := rig.Engines[packet.NodeID(n)].SetBundle(b); err != nil {
				return Metrics{}, nil, err
			}
		}
	}
	d := workload.NewDriver(rig.Cl.Eng, rig.Engines, seed)
	for _, f := range p.Flows {
		d.Add(f)
	}
	m, err := rig.Run(d.Submitted)
	return m, rig, err
}

// run is RunPoint for tables and oracles (see must).
func run(p Point, cfg Config) (Metrics, *Rig) {
	m, rig, err := RunPoint(p, cfg.Seed)
	if err != nil {
		panic(err)
	}
	return m, rig
}

// message builds the complete one-fragment message the raw-packet
// experiments submit directly (the same packet workload.Driver builds).
func message(flow packet.FlowID, seq, size int, src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		Flow: flow, Msg: packet.MsgID(seq), Seq: seq, Last: true,
		Src: src, Dst: dst, Class: packet.ClassSmall,
		Payload: make([]byte, size),
	}
}

// Metrics summarizes one run.
type Metrics struct {
	End        simnet.Time
	Wall       time.Duration
	Frames     uint64
	Packets    uint64
	Aggregates uint64
	MeanLatUs  float64
	P50LatUs   float64
	P99LatUs   float64
	CtrlP50Us  float64
	CtrlP99Us  float64
	MsgPerSec  float64
	Delivered  int
}

// EndUs is the virtual completion time in µs, the unit most tables print.
func (m Metrics) EndUs() float64 { return float64(m.End) / 1000 }

// PerFrame is the mean aggregation depth: delivered packets per NIC frame.
func (m Metrics) PerFrame() float64 { return float64(m.Delivered) / float64(m.Frames) }

// Run drains the simulation and collects metrics. expected is the number
// of deliveries the workload should produce (0 = skip the check).
func (r *Rig) Run(expected int) (Metrics, error) {
	start := time.Now()
	end := r.Cl.Eng.Run()
	wall := time.Since(start)
	total := 0
	for _, n := range r.Delivered {
		total += n
	}
	if expected > 0 && total != expected {
		return Metrics{}, fmt.Errorf("exp: delivered %d of %d", total, expected)
	}
	lat := r.SpanTotal(core.SpanE2E)
	ctrl := &stats.Histogram{}
	for _, eng := range r.Engines {
		for _, c := range eng.Spans().Snapshot() {
			if c.Kind == int(core.SpanE2E) && c.Class == int(packet.ClassControl) {
				ctrl.Merge(c.Hist)
			}
		}
	}
	m := Metrics{
		End:        end,
		Wall:       wall,
		Frames:     r.Cl.Stats.CounterValue("nic.tx.frames"),
		Packets:    r.Cl.Stats.CounterValue("core.packets_sent"),
		Aggregates: r.Cl.Stats.CounterValue("core.aggregates"),
		MeanLatUs:  lat.Mean() / 1000,
		P50LatUs:   lat.Quantile(0.5) / 1000,
		P99LatUs:   lat.Quantile(0.99) / 1000,
		CtrlP50Us:  ctrl.Quantile(0.5) / 1000,
		CtrlP99Us:  ctrl.Quantile(0.99) / 1000,
		Delivered:  total,
	}
	if end > 0 {
		m.MsgPerSec = float64(total) / (float64(end) / float64(simnet.Second))
	}
	if r.id != "" {
		reportLatency(r.id, lat, r.SpanTotal(core.SpanQueueWait))
	}
	return m, nil
}

// stepUntil advances the simulation until done reports true or the event
// queue drains. Controller ticks reschedule themselves, so with a control
// loop attached the queue never drains; a generous virtual deadline (the
// slowest configuration completes in tens of milliseconds) turns a lost
// delivery into a fast, diagnosable stall instead of a spin.
func (r *Rig) stepUntil(done func() bool) {
	const deadline = simnet.Time(1 * simnet.Second)
	for !done() && r.Cl.Eng.Now() < deadline && r.Cl.Eng.Step() {
	}
}

// SpanTotal merges one latency-span kind across every engine in the rig.
func (r *Rig) SpanTotal(kind core.SpanKind) *stats.Histogram {
	h := &stats.Histogram{}
	for _, eng := range r.Engines {
		h.Merge(eng.Spans().Total(int(kind)))
	}
	return h
}
