// Package exp is the benchmark harness: one module per experiment in the
// reproduction plan (DESIGN.md §4), each regenerating the table or series
// that substantiates one claim of the paper. cmd/madbench prints them; the
// root-level bench_test.go wraps each in a testing.B benchmark; the tests
// in this package assert the *shape* of each result (who wins, roughly by
// how much), which is the reproduction's acceptance criterion.
package exp

import (
	"fmt"
	"sort"
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

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("exp: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Report is what an experiment's last run recorded beside its tables;
// cmd/madbench folds it into its machine-readable output. Experiments
// that run several variants write once per variant; the last write (by
// convention the full engine) is what is exported.
type Report struct {
	// Decisions counts the retunes the run's controllers applied (E11, X3).
	Decisions uint64
	// FaultsInjected and Recoveries count the faults that hit the run and
	// the recovery actions the engines fired (X5).
	FaultsInjected, Recoveries uint64
	// Latency is the run's delivery-latency digest; nil when the
	// experiment reported none.
	Latency *LatencySummary
	// Tenants holds per-tenant admission outcomes (X6).
	Tenants []TenantSummary
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

// Latency returns the latency digest recorded by the last run of the
// experiment; ok is false when the experiment never reported one.
func Latency(id string) (s LatencySummary, ok bool) {
	if l := ReportOf(id).Latency; l != nil {
		return *l, true
	}
	return LatencySummary{}, false
}

// LatencySummary is one run's delivery-latency digest: the end-to-end
// span (submit→deliver; eager deliveries only — rendezvous payloads are
// reconstructed at the receiver without the submit stamp) and the
// queue-wait span (submit→first post attempt), merged across every
// engine in the run.
type LatencySummary struct {
	E2ECount   uint64
	E2EP50Us   float64
	E2EP95Us   float64
	E2EP99Us   float64
	QwaitCount uint64
	QwaitP50Us float64
	QwaitP95Us float64
	QwaitP99Us float64
}

// reportLatency records the digest of two merged span histograms
// (nanosecond samples) as microsecond quantiles.
func reportLatency(id string, e2e, qwait *stats.Histogram) {
	report(id, func(r *Report) {
		r.Latency = &LatencySummary{
			E2ECount:   e2e.Count(),
			E2EP50Us:   e2e.Quantile(0.50) / 1e3,
			E2EP95Us:   e2e.Quantile(0.95) / 1e3,
			E2EP99Us:   e2e.Quantile(0.99) / 1e3,
			QwaitCount: qwait.Count(),
			QwaitP50Us: qwait.Quantile(0.50) / 1e3,
			QwaitP95Us: qwait.Quantile(0.95) / 1e3,
			QwaitP99Us: qwait.Quantile(0.99) / 1e3,
		}
	})
}

// TenantSummary is one tenant's admission outcome in an experiment's final
// run: submissions offered, the split into admitted and refused (refusals
// are explicit typed errors, never silent drops), and the tenant's
// end-to-end p99 over its delivered packets (0 when nothing delivered).
type TenantSummary struct {
	Tenant   uint8
	Offered  uint64
	Admitted uint64
	Refused  uint64
	P99E2EUs float64
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns the experiments in natural order: the paper's E-series by
// number, then addenda (X-series) alphabetically.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	rank := func(id string) (series int, n int) {
		var num int
		if c, _ := fmt.Sscanf(id, "E%d", &num); c == 1 {
			return 0, num
		}
		return 1, 0
	}
	sort.Slice(out, func(i, j int) bool {
		si, ni := rank(out[i].ID)
		sj, nj := rank(out[j].ID)
		if si != sj {
			return si < sj
		}
		if ni != nj {
			return ni < nj
		}
		return out[i].ID < out[j].ID
	})
	return out
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

	Lookahead    int
	Nagle        simnet.Duration
	NagleFlush   int
	SearchBudget int

	// WithSessions routes deliveries into mad sessions (middleware-driven
	// experiments). Raw packet workloads leave it false: their synthetic
	// flow ids do not correspond to mad channels.
	WithSessions bool

	// OnDeliver, when set, observes every delivery (after counting).
	OnDeliver func(node packet.NodeID, d proto.Deliverable)
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
				Bundle:          b,
				Runtime:         cl.Eng,
				Rails:           rails,
				Deliver:         wrapped,
				Lookahead:       o.Lookahead,
				NagleDelay:      o.Nagle,
				NagleFlushCount: o.NagleFlush,
				SearchBudget:    o.SearchBudget,
				Stats:           cl.Stats,
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

// SpanTotal merges one latency-span kind across every engine in the rig.
func (r *Rig) SpanTotal(kind core.SpanKind) *stats.Histogram {
	h := &stats.Histogram{}
	for _, eng := range r.Engines {
		h.Merge(eng.Spans().Total(int(kind)))
	}
	return h
}
