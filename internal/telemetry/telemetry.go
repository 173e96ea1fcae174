// Package telemetry is the observability surface over the optimizer
// fleet: a Registry aggregates every engine's metrics snapshot, latency
// spans and shared counter sets into uniform, JSON-able snapshots, rolls
// a whole testnet up into one fleet view (per-role quantile merge via
// stats.Histogram.Merge), and exposes it all over HTTP as Prometheus text
// and JSON alongside net/http/pprof and expvar (http.go, prom.go).
//
// The division of labor with the datapath: engines observe into per-cell
// stats.Spans histograms (internal/core) and never format anything; this
// package does all naming, quantile math and serialization at scrape
// time, outside the engine locks.
package telemetry

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/stats"
)

// Schema identifies the snapshot JSON layout.
const Schema = "newmad-telemetry/v3"

// Source is one observed engine: the handle the Registry scrapes.
type Source struct {
	// Node is the engine's node ID (the registry key).
	Node packet.NodeID
	// Role is the topology role ("leader", "worker", ...); roles group
	// the fleet roll-up. Empty is a valid role.
	Role string
	// Engine supplies Metrics and latency spans (required).
	Engine *core.Engine
	// Stats, when non-nil, contributes what the node's set stores itself
	// (driver, controller and chaos counters, the plan histograms) to its
	// snapshot; the engine quantities the set merely serves by name are
	// already in Metrics. Leave nil when the set is shared across nodes
	// (the testnet's fleet-wide set) — register it once with
	// SetFleetStats instead, or every node would re-report it.
	Stats *stats.Set
}

// Registry aggregates sources into snapshots. Safe for concurrent use;
// scraping never blocks an engine beyond its own metric mutexes.
type Registry struct {
	mu         sync.Mutex
	sources    []Source
	byNode     map[packet.NodeID]int
	fleetStats *stats.Set
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNode: make(map[packet.NodeID]int)}
}

// Register adds (or replaces) a source.
func (r *Registry) Register(s Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byNode[s.Node]; ok {
		r.sources[i] = s
		return
	}
	r.byNode[s.Node] = len(r.sources)
	r.sources = append(r.sources, s)
}

// SetFleetStats registers a counter set shared by the whole fleet (the
// testnet's single stats.Set); it is reported once per fleet snapshot
// instead of once per node.
func (r *Registry) SetFleetStats(s *stats.Set) {
	r.mu.Lock()
	r.fleetStats = s
	r.mu.Unlock()
}

func (r *Registry) source(node packet.NodeID) (Source, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byNode[node]
	if !ok {
		return Source{}, false
	}
	return r.sources[i], true
}

// HistStat is the JSON form of one histogram: the quantiles a human
// reads plus the mergeable bucket counts a roll-up needs — the non-empty
// buckets of the stats.Histogram layout (see stats.BucketBounds).
type HistStat struct {
	Count uint64         `json:"count"`
	Sum   float64        `json:"sum"`
	Min   float64        `json:"min"`
	Max   float64        `json:"max"`
	Mean  float64        `json:"mean"`
	P50   float64        `json:"p50"`
	P95   float64        `json:"p95"`
	P99   float64        `json:"p99"`
	Bkts  []stats.Bucket `json:"buckets,omitempty"`
}

// HistStatOf summarizes h from one snapshot of it, so its quantiles are
// the ones Histogram rebuilds from its buckets.
func HistStatOf(h *stats.Histogram) HistStat {
	h = h.Clone()
	return HistStat{
		Count: h.Count(),
		Sum:   h.Sum(),
		Min:   h.Min(),
		Max:   h.Max(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Bkts:  h.Buckets(),
	}
}

// Histogram rebuilds a mergeable histogram from the wire form — the
// client side (madmon, fleet roll-ups across JSON boundaries) merges
// these with stats.Histogram.Merge for honest cross-node quantiles, and
// a rebuilt cell answers every quantile exactly as the node did.
func (hs HistStat) Histogram() *stats.Histogram {
	return stats.FromBuckets(hs.Bkts, hs.Count, hs.Sum, hs.Min, hs.Max)
}

// SpanStat is one latency-span cell: which lifecycle leg, for which
// traffic class, on which rail, with the distribution in nanoseconds.
type SpanStat struct {
	Span  string `json:"span"`
	Class string `json:"class"`
	Rail  int    `json:"rail"`
	HistStat
}

// NodeSnapshot is one engine's uniform telemetry snapshot.
type NodeSnapshot struct {
	Schema   string              `json:"schema"`
	Node     int32               `json:"node"`
	Role     string              `json:"role,omitempty"`
	NowNs    int64               `json:"now_ns"`
	Metrics  core.Metrics        `json:"metrics"`
	Spans    []SpanStat          `json:"spans,omitempty"`
	Counters map[string]uint64   `json:"counters,omitempty"`
	Hists    map[string]HistStat `json:"hists,omitempty"`
}

// spanStats renders an engine's span family.
func spanStats(e *core.Engine) []SpanStat {
	cells := e.Spans().Snapshot()
	out := make([]SpanStat, 0, len(cells))
	for _, c := range cells {
		out = append(out, SpanStat{
			Span:     core.SpanKind(c.Kind).String(),
			Class:    packet.ClassID(c.Class).String(),
			Rail:     c.Rail,
			HistStat: HistStatOf(c.Hist),
		})
	}
	return out
}

// setStats renders what a stats.Set stores into snapshot maps. Names the
// Set serves on an engine's behalf are not listed by Names and so are not
// repeated here: Metrics carries them.
func setStats(s *stats.Set) (ctrs map[string]uint64, hists map[string]HistStat) {
	cn, hn := s.Names()
	if len(cn) > 0 {
		ctrs = make(map[string]uint64, len(cn))
		for _, n := range cn {
			ctrs[n] = s.CounterValue(n)
		}
	}
	if len(hn) > 0 {
		hists = make(map[string]HistStat, len(hn))
		for _, n := range hn {
			hists[n] = HistStatOf(s.Histogram(n))
		}
	}
	return
}

// Snapshot scrapes one node.
func (r *Registry) Snapshot(node packet.NodeID) (NodeSnapshot, bool) {
	s, ok := r.source(node)
	if !ok {
		return NodeSnapshot{}, false
	}
	return snapshotSource(s), true
}

func snapshotSource(s Source) NodeSnapshot {
	ns := NodeSnapshot{
		Schema:  Schema,
		Node:    int32(s.Node),
		Role:    s.Role,
		Metrics: s.Engine.Metrics(),
		Spans:   spanStats(s.Engine),
	}
	ns.NowNs = int64(ns.Metrics.Now)
	if s.Stats != nil {
		ns.Counters, ns.Hists = setStats(s.Stats)
	}
	return ns
}

// RoleRollup is one role's merged view: totals under core's set names plus
// per-span histograms merged across the role's nodes (class and rail
// collapsed, so a 1000-node role stays a handful of entries).
type RoleRollup struct {
	Role   string       `json:"role"`
	Nodes  int          `json:"nodes"`
	Totals stats.Totals `json:"totals"`
	Spans  []SpanStat   `json:"spans,omitempty"`
}

// FleetSnapshot is the whole registry rolled into one document: fleet
// totals, fleet-wide span cells (merged across nodes, keyed by
// span/class/rail), per-role roll-ups, and the shared counter set.
type FleetSnapshot struct {
	Schema string       `json:"schema"`
	NowNs  int64        `json:"now_ns"`
	Nodes  int          `json:"nodes"`
	Totals stats.Totals `json:"totals"`
	Spans  []SpanStat   `json:"spans,omitempty"`
	Roles  []RoleRollup `json:"roles,omitempty"`
	// Tenants is the per-tenant admission roll-up, summed across engines
	// (counters and backlog add; the quota echo fields carry one engine's
	// sample — quota tables are nominally homogeneous, and a control loop
	// retuning one engine makes the echo a representative, not a total).
	// Ordered by tenant ID. Empty when no engine has admission enabled.
	Tenants  []core.TenantMetrics `json:"tenants,omitempty"`
	Counters map[string]uint64    `json:"counters,omitempty"`
	Hists    map[string]HistStat  `json:"hists,omitempty"`
}

// spanCellKey keys the fleet-wide merge.
type spanCellKey struct {
	kind, class, rail int
}

// Fleet rolls every registered engine into one snapshot. Histograms
// merge via stats.Histogram.Merge — counts and buckets add exactly, so
// quantiles of the merged distribution carry the layout's stated error
// (1/128), not the error of averaging per-node quantiles.
func (r *Registry) Fleet() FleetSnapshot {
	r.mu.Lock()
	srcs := append([]Source(nil), r.sources...)
	fleetStats := r.fleetStats
	r.mu.Unlock()

	fs := FleetSnapshot{Schema: Schema, Nodes: len(srcs), Totals: core.NewTotals()}
	cells := make(map[spanCellKey]*stats.Histogram)
	type roleAcc struct {
		nodes  int
		totals stats.Totals
		spans  []*stats.Histogram // per span kind
	}
	roles := make(map[string]*roleAcc)
	tenants := make(map[packet.TenantID]*core.TenantMetrics)

	var m core.Metrics
	for _, s := range srcs {
		s.Engine.MetricsInto(&m)
		if int64(m.Now) > fs.NowNs {
			fs.NowNs = int64(m.Now)
		}
		for _, tm := range m.Tenants {
			acc := tenants[tm.Tenant]
			if acc == nil {
				cp := tm
				tenants[tm.Tenant] = &cp
				continue
			}
			acc.Submitted += tm.Submitted
			acc.Throttled += tm.Throttled
			acc.OverQuota += tm.OverQuota
			acc.Backlog += tm.Backlog
		}
		ra := roles[s.Role]
		if ra == nil {
			ra = &roleAcc{totals: core.NewTotals(), spans: make([]*stats.Histogram, int(core.NumSpanKinds))}
			for i := range ra.spans {
				ra.spans[i] = &stats.Histogram{}
			}
			roles[s.Role] = ra
		}
		ra.nodes++
		m.Each(ra.totals.Counter, ra.totals.Gauge)
		for _, c := range s.Engine.Spans().Snapshot() {
			key := spanCellKey{c.Kind, c.Class, c.Rail}
			if cells[key] == nil {
				cells[key] = &stats.Histogram{}
			}
			cells[key].Merge(c.Hist)
			if c.Kind < len(ra.spans) {
				ra.spans[c.Kind].Merge(c.Hist)
			}
		}
	}

	keys := make([]spanCellKey, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b spanCellKey) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.class, b.class), cmp.Compare(a.rail, b.rail))
	})
	for _, k := range keys {
		fs.Spans = append(fs.Spans, SpanStat{
			Span:     core.SpanKind(k.kind).String(),
			Class:    packet.ClassID(k.class).String(),
			Rail:     k.rail,
			HistStat: HistStatOf(cells[k]),
		})
	}

	roleNames := make([]string, 0, len(roles))
	for n := range roles {
		roleNames = append(roleNames, n)
	}
	sort.Strings(roleNames)
	for _, n := range roleNames {
		ra := roles[n]
		rr := RoleRollup{Role: n, Nodes: ra.nodes, Totals: ra.totals}
		fs.Totals.Add(ra.totals)
		for k, h := range ra.spans {
			if h.Count() == 0 {
				continue
			}
			rr.Spans = append(rr.Spans, SpanStat{
				Span:     core.SpanKind(k).String(),
				Class:    "all",
				Rail:     -1,
				HistStat: HistStatOf(h),
			})
		}
		fs.Roles = append(fs.Roles, rr)
	}

	tenantIDs := make([]int, 0, len(tenants))
	for t := range tenants {
		tenantIDs = append(tenantIDs, int(t))
	}
	sort.Ints(tenantIDs)
	for _, t := range tenantIDs {
		fs.Tenants = append(fs.Tenants, *tenants[packet.TenantID(t)])
	}

	if fleetStats != nil {
		fs.Counters, fs.Hists = setStats(fleetStats)
	}
	return fs
}

// SpanTotal returns the fleet snapshot's merged histogram for one span
// kind across every class and rail — convenience for assertions like
// "the fleet observed deliveries".
func (fs *FleetSnapshot) SpanTotal(span string) *stats.Histogram {
	return spanTotal(fs.Spans, span)
}

// SpanTotal returns the node's merged histogram for one span kind across
// every class and rail.
func (ns *NodeSnapshot) SpanTotal(span string) *stats.Histogram {
	return spanTotal(ns.Spans, span)
}

// spanTotal merges the cells of one span kind, rebuilt from the wire form.
func spanTotal(spans []SpanStat, span string) *stats.Histogram {
	out := &stats.Histogram{}
	for _, s := range spans {
		if s.Span == span {
			out.Merge(s.Histogram())
		}
	}
	return out
}
