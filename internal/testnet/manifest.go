// Package testnet boots large emulated networks — a thousand in-process
// optimizer engines over simulated fabrics — from a declarative manifest,
// and proves delivery and replay properties about them.
//
// A manifest names roles (how many nodes, which capability profile), the
// traffic between role groups, and a chaos schedule addressed at role
// groups; a single seed makes the whole run — node RNG streams, workload
// draws, chaos edge selection, frame-level drops — a pure function of the
// manifest. The determinism contract is strict: two Build+Run cycles of the
// same manifest produce byte-identical chaos traces and identical delivery
// accounting, which is what makes a failing 1000-node CI run replayable on
// a laptop from nothing but the manifest and the seed.
package testnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"newmad/internal/caps"
	"newmad/internal/chaos"
	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// Manifest is the declarative description of an emulated network. All
// durations are integer fields with explicit units (_us/_ms) so a manifest
// is plain JSON with no parsing conventions to remember.
type Manifest struct {
	// Name labels the topology in reports.
	Name string `json:"name"`
	// Seed drives every random decision in the run.
	Seed uint64 `json:"seed"`
	// Rails is the per-node rail count; every node gets one NIC on each of
	// the Rails fabrics. Rail count is topology-global — per-role rail
	// counts would let a sender stripe onto a fabric its peer has no NIC
	// on. Default 1.
	Rails int `json:"rails"`
	// DropPct is the percentage (0..100) of rendezvous control frames
	// (RTS/CTS) each receive port deterministically drops. Control frames
	// are the recoverable fault class: the rendezvous retry protocol
	// re-sends them and the receiver deduplicates, so exactly-once holds
	// under drop. Data frames are never dropped — the simulated fabrics
	// model reliable interconnects with no retransmission layer.
	DropPct float64 `json:"drop_pct"`
	// MaxEvents bounds the discrete-event run as a runaway guard.
	// Default 50M.
	MaxEvents uint64 `json:"max_events"`
	// Engine tunes every node's optimizer.
	Engine EngineTuning `json:"engine"`
	// Telemetry tunes the run's observability sweep: periodic fleet
	// snapshots on the virtual clock, per-node flight-recorder rings and
	// the dump-on-anomaly spool.
	Telemetry TelemetryClause `json:"telemetry"`
	// Roles partition the nodes. Node IDs are assigned to roles sorted by
	// role name, in contiguous blocks, so membership is independent of the
	// order roles appear in the file.
	Roles []Role `json:"roles"`
	// Workload lists the traffic clauses between role groups.
	Workload []TrafficClause `json:"workload"`
	// Chaos lists the fault clauses against role groups.
	Chaos []ChaosClause `json:"chaos"`
}

// EngineTuning carries per-node core.Engine knobs.
type EngineTuning struct {
	// Bundle names the strategy bundle; default "aggregate".
	Bundle string `json:"bundle"`
	// Lookahead bounds the plan window (0 = unbounded).
	Lookahead int `json:"lookahead"`
	// NagleUS delays submission-triggered sends (microseconds).
	NagleUS int `json:"nagle_us"`
	// RdvThreshold forces rendezvous above this size (bytes).
	RdvThreshold int `json:"rdv_threshold"`
	// RdvRetryUS is the rendezvous retry base window (microseconds);
	// required (>0) when DropPct > 0 or dropped RTS/CTS would strand
	// transfers.
	RdvRetryUS int `json:"rdv_retry_us"`
	// RdvRetryMax bounds retries per rendezvous (0 = engine default).
	RdvRetryMax int `json:"rdv_retry_max"`
}

// knobs maps the engine block onto the engine's operating point.
func (t EngineTuning) knobs() strategy.Knobs {
	return strategy.Knobs{
		Lookahead:    t.Lookahead,
		NagleDelay:   simnet.Duration(t.NagleUS) * simnet.Microsecond,
		RdvThreshold: t.RdvThreshold,
	}
}

// knobKeys names the manifest key behind each knob the engine block sets.
var knobKeys = map[string]string{"lookahead": "lookahead", "nagle": "nagle_us", "rdv-threshold": "rdv_threshold"}

// TelemetryClause tunes a run's observability. The zero value keeps the
// always-on minimum: engines still stamp latency spans (that is free and
// unconditional), the registry still rolls the fleet up once at the end
// of Run, but no periodic sweep, no flight recorders, no spool.
type TelemetryClause struct {
	// SnapshotMS takes a fleet snapshot every that many virtual
	// milliseconds while the run is active (0 = final snapshot only).
	// Snapshots accumulate on Net.Snapshots.
	SnapshotMS int `json:"snapshot_ms"`
	// TraceRing attaches a flight-recorder ring of this capacity to every
	// node (0 = none). Required (defaulted to 256) when SpoolDir is set.
	TraceRing int `json:"trace_ring"`
	// SpoolDir, when non-empty, receives a flight-recorder dump — the
	// last SpoolLastN trace events of every involved node — whenever Run
	// detects an anomaly (lost, duplicated or misrouted delivery).
	SpoolDir string `json:"spool_dir"`
	// SpoolLastN bounds the events dumped per node (default 256).
	SpoolLastN int `json:"spool_last_n"`
}

// Role is one class of nodes.
type Role struct {
	// Name is the group key chaos and workload clauses address.
	Name string `json:"name"`
	// Count is how many nodes run this role.
	Count int `json:"count"`
	// Profile names a capability record from the internal/caps registry
	// ("mx", "elan", "ib", "tcp", "wan"); default "tcp".
	Profile string `json:"profile"`
	// Channels overrides the profile's NIC channel count (0 keeps it).
	Channels int `json:"channels"`
	// Tenant is the admission-control principal (0..255) this role's
	// submissions are charged to; traffic clauses inherit the *sender*
	// role's tenant. Default 0. Tenancy is inert unless some role also
	// declares a Quota.
	Tenant int `json:"tenant"`
	// Quota, when set, bounds the role's tenant at every engine in the
	// topology (quota tables are homogeneous — a tenant's quota is per
	// sending engine, not fleet-global). Submissions refused by the quota
	// are counted as throttled, not lost. Two roles sharing a tenant must
	// declare identical quotas (or only one of them).
	Quota *QuotaClause `json:"quota"`
}

// QuotaClause is a role's per-tenant admission quota. Zero fields are
// unlimited on that axis, matching core.TenantQuota.
type QuotaClause struct {
	// RatePPS is the sustained admission rate (packets/second).
	RatePPS float64 `json:"rate_pps"`
	// Burst is the bucket depth above the sustained rate.
	Burst int `json:"burst"`
	// Backlog caps the tenant's queued-but-unplanned packets per engine.
	Backlog int `json:"backlog"`
}

// TrafficClause is one workload entry: members of From talking to members
// of To under a pattern.
type TrafficClause struct {
	// Name labels the clause in diagnostics.
	Name string `json:"name"`
	// From and To name roles.
	From string `json:"from"`
	To   string `json:"to"`
	// Pattern is "pairwise" (default), "broadcast" or "random".
	Pattern string `json:"pattern"`
	// Msgs is messages per expanded flow.
	Msgs int `json:"msgs"`
	// Size draws message sizes.
	Size SizeClause `json:"size"`
	// Arrival draws inter-submission gaps.
	Arrival ArrivalClause `json:"arrival"`
	// Class is "control", "small" (default), "bulk" or "rma".
	Class string `json:"class"`
	// StartUS offsets the clause's first submissions (microseconds).
	StartUS int `json:"start_us"`
}

// SizeClause selects a message-size law.
type SizeClause struct {
	// Dist is "fixed" (default), "uniform" or "pareto".
	Dist string `json:"dist"`
	// Lo is the fixed size, or the lower bound.
	Lo int `json:"lo"`
	// Hi is the upper bound for uniform/pareto.
	Hi int `json:"hi"`
	// Alpha is the pareto shape (default 1.2).
	Alpha float64 `json:"alpha"`
}

// ArrivalClause selects an arrival process.
type ArrivalClause struct {
	// Proc is "back-to-back" (default), "poisson" or "bursts".
	Proc string `json:"proc"`
	// MeanUS is the poisson mean gap (microseconds).
	MeanUS int `json:"mean_us"`
	// Burst is the bursts-mode burst length.
	Burst int `json:"burst"`
	// GapUS is the bursts-mode inter-burst gap (microseconds).
	GapUS int `json:"gap_us"`
}

// ChaosClause is one group-addressed fault. Heals are implied: the fault
// lasts ForMS and Resolve pairs each down with its heal on the same edges.
type ChaosClause struct {
	// AtMS is the fault offset from run start (milliseconds).
	AtMS int `json:"at_ms"`
	// Op is "rail-down", "partition" or "crash".
	Op string `json:"op"`
	// Group names the subject role; Peer the other side (default: Group).
	Group string `json:"group"`
	Peer  string `json:"peer"`
	// Rail picks the rail for rail-down; a negative value draws a random
	// rail per edge. Omitted means rail 0.
	Rail int `json:"rail"`
	// ForMS is the fault duration (milliseconds); 0 is a same-instant blip.
	ForMS int `json:"for_ms"`
	// Count is how many edges (nodes for crash) to draw; 0 means 1.
	Count int `json:"count"`
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("testnet: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates manifest JSON. Unknown fields are errors —
// a typoed knob silently defaulting would undermine the replay contract.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("testnet: parsing manifest: %w", err)
	}
	m.applyDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Manifest) applyDefaults() {
	if m.Rails == 0 {
		m.Rails = 1
	}
	if m.MaxEvents == 0 {
		m.MaxEvents = 50_000_000
	}
	if m.Engine.Bundle == "" {
		m.Engine.Bundle = "aggregate"
	}
	for i := range m.Roles {
		if m.Roles[i].Profile == "" {
			m.Roles[i].Profile = "tcp"
		}
	}
	if m.Telemetry.SpoolDir != "" {
		if m.Telemetry.TraceRing == 0 {
			m.Telemetry.TraceRing = 256
		}
		if m.Telemetry.SpoolLastN == 0 {
			m.Telemetry.SpoolLastN = 256
		}
	}
}

// Validate checks the manifest's internal consistency. It resolves every
// registry reference (profiles, bundles, patterns, classes) up front so a
// broken manifest fails at load, not mid-boot of a 1000-node topology.
func (m *Manifest) Validate() error {
	if m.Rails < 1 {
		return fmt.Errorf("testnet: %d rails", m.Rails)
	}
	if m.DropPct < 0 || m.DropPct > 100 {
		return fmt.Errorf("testnet: drop_pct %v outside [0,100]", m.DropPct)
	}
	if m.DropPct > 0 && m.Engine.RdvRetryUS <= 0 {
		return fmt.Errorf("testnet: drop_pct %v needs engine.rdv_retry_us > 0 (dropped control frames are only recovered by rendezvous retry)", m.DropPct)
	}
	if len(m.Roles) == 0 {
		return fmt.Errorf("testnet: no roles")
	}
	if m.Telemetry.SnapshotMS < 0 || m.Telemetry.TraceRing < 0 || m.Telemetry.SpoolLastN < 0 {
		return fmt.Errorf("testnet: negative telemetry tuning %+v", m.Telemetry)
	}
	if _, err := strategy.New(m.Engine.Bundle); err != nil {
		return fmt.Errorf("testnet: %w", err)
	}
	// The engine block's knobs by the engine's own rule, so a negative one
	// fails here and not in core.New mid-boot.
	var ke *strategy.KnobError
	if err := m.Engine.knobs().Validate(); errors.As(err, &ke) {
		return fmt.Errorf("testnet: engine.%s: %w", knobKeys[ke.Knob], err)
	}
	if m.Engine.RdvRetryUS < 0 {
		return fmt.Errorf("testnet: engine.rdv_retry_us %d is negative", m.Engine.RdvRetryUS)
	}
	if m.Engine.RdvRetryMax < 0 {
		return fmt.Errorf("testnet: engine.rdv_retry_max %d is negative", m.Engine.RdvRetryMax)
	}
	seen := map[string]bool{}
	total := 0
	for i, r := range m.Roles {
		if r.Name == "" {
			return fmt.Errorf("testnet: role %d unnamed", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("testnet: duplicate role %q", r.Name)
		}
		seen[r.Name] = true
		if r.Count < 1 {
			return fmt.Errorf("testnet: role %q has count %d", r.Name, r.Count)
		}
		if _, ok := caps.Lookup(r.Profile); !ok {
			return fmt.Errorf("testnet: role %q names unknown profile %q (known: %v)", r.Name, r.Profile, caps.Names())
		}
		if r.Channels < 0 {
			return fmt.Errorf("testnet: role %q has %d channels", r.Name, r.Channels)
		}
		if r.Tenant < 0 || r.Tenant > 255 {
			return fmt.Errorf("testnet: role %q has tenant %d outside 0..255", r.Name, r.Tenant)
		}
		if q := r.Quota; q != nil {
			if q.RatePPS < 0 || q.Burst < 0 || q.Backlog < 0 {
				return fmt.Errorf("testnet: role %q has negative quota %+v", r.Name, *q)
			}
		}
		total += r.Count
	}
	// A tenant's quota must be declared once (or identically): two roles
	// silently overwriting each other's table entry would make the
	// effective quota depend on role iteration order.
	quotas := map[int]QuotaClause{}
	for _, r := range m.Roles {
		if r.Quota == nil {
			continue
		}
		if prev, ok := quotas[r.Tenant]; ok && prev != *r.Quota {
			return fmt.Errorf("testnet: tenant %d has conflicting quotas %+v and %+v", r.Tenant, prev, *r.Quota)
		}
		quotas[r.Tenant] = *r.Quota
	}
	if total < 2 {
		return fmt.Errorf("testnet: %d nodes total; need at least 2", total)
	}
	if len(m.Workload) == 0 {
		return fmt.Errorf("testnet: no workload clauses")
	}
	for i, w := range m.Workload {
		if !seen[w.From] || !seen[w.To] {
			return fmt.Errorf("testnet: workload %d references unknown role (%q -> %q)", i, w.From, w.To)
		}
		if w.Msgs < 1 {
			return fmt.Errorf("testnet: workload %d has %d msgs", i, w.Msgs)
		}
		if _, err := workload.ParsePattern(w.Pattern); err != nil {
			return fmt.Errorf("testnet: workload %d: %w", i, err)
		}
		if _, err := w.Size.dist(); err != nil {
			return fmt.Errorf("testnet: workload %d: %w", i, err)
		}
		if _, err := w.Arrival.proc(); err != nil {
			return fmt.Errorf("testnet: workload %d: %w", i, err)
		}
		if _, err := parseClass(w.Class); err != nil {
			return fmt.Errorf("testnet: workload %d: %w", i, err)
		}
		if w.StartUS < 0 {
			return fmt.Errorf("testnet: workload %d starts at %dus", i, w.StartUS)
		}
	}
	for i, c := range m.Chaos {
		if _, err := parseChaosOp(c.Op); err != nil {
			return fmt.Errorf("testnet: chaos %d: %w", i, err)
		}
		if !seen[c.Group] {
			return fmt.Errorf("testnet: chaos %d names unknown group %q", i, c.Group)
		}
		if c.Peer != "" && !seen[c.Peer] {
			return fmt.Errorf("testnet: chaos %d names unknown peer group %q", i, c.Peer)
		}
		if c.AtMS < 0 || c.ForMS < 0 || c.Count < 0 {
			return fmt.Errorf("testnet: chaos %d has negative timing or count", i)
		}
		if c.Rail >= m.Rails {
			return fmt.Errorf("testnet: chaos %d targets rail %d of %d", i, c.Rail, m.Rails)
		}
	}
	return nil
}

// TotalNodes returns the topology size.
func (m *Manifest) TotalNodes() int {
	n := 0
	for _, r := range m.Roles {
		n += r.Count
	}
	return n
}

// rolesByName returns the roles sorted by name — the canonical order node
// IDs are assigned in, independent of file order.
func (m *Manifest) rolesByName() []Role {
	out := append([]Role(nil), m.Roles...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Groups returns role name -> ordered member node IDs. Membership is a pure
// function of the role set (names and counts), not of file order.
func (m *Manifest) Groups() map[string][]int {
	groups := make(map[string][]int, len(m.Roles))
	id := 0
	for _, r := range m.rolesByName() {
		members := make([]int, r.Count)
		for i := range members {
			members[i] = id
			id++
		}
		groups[r.Name] = members
	}
	return groups
}

// Quotas compiles the roles' quota clauses into the per-engine admission
// table (nil when no role declares one, which keeps admission disabled).
func (m *Manifest) Quotas() map[packet.TenantID]core.TenantQuota {
	var out map[packet.TenantID]core.TenantQuota
	for _, r := range m.Roles {
		if r.Quota == nil {
			continue
		}
		if out == nil {
			out = make(map[packet.TenantID]core.TenantQuota)
		}
		out[packet.TenantID(r.Tenant)] = core.TenantQuota{
			Rate:    r.Quota.RatePPS,
			Burst:   r.Quota.Burst,
			Backlog: r.Quota.Backlog,
		}
	}
	return out
}

// FaultRules returns the per-frame fault rules the manifest means — the one
// place drop_pct turns into a rule, for the emulated and the socket tier
// alike. Drops apply only to rendezvous control frames (RTS/CTS), the fault
// class the retry protocol recovers; dropping data frames would model a
// lossy wire the reliable-interconnect stack has no retransmission for.
func (m *Manifest) FaultRules() []chaos.Rule {
	if m.DropPct <= 0 {
		return nil
	}
	return []chaos.Rule{{
		Kind:   chaos.Drop,
		Prob:   m.DropPct / 100,
		Frames: []packet.FrameKind{packet.FrameRTS, packet.FrameCTS},
	}}
}

// GroupChaos converts the chaos clauses to the group-script DSL. Resolving
// it with the seed-keyed "chaos" stream (as Build does) yields the concrete
// schedule; other tiers (internal/cluster's socket meshes) use the same
// derivation to replay the identical schedule.
func (m *Manifest) GroupChaos() chaos.GroupScript {
	var g chaos.GroupScript
	for _, c := range m.Chaos {
		op, _ := parseChaosOp(c.Op) // validated at load
		g.Events = append(g.Events, chaos.GroupEvent{
			At:    time.Duration(c.AtMS) * time.Millisecond,
			Op:    op,
			For:   time.Duration(c.ForMS) * time.Millisecond,
			Group: c.Group,
			Peer:  c.Peer,
			Rail:  c.Rail,
			Count: c.Count,
		})
	}
	return g
}

func (s SizeClause) dist() (workload.SizeDist, error) {
	switch s.Dist {
	case "fixed", "":
		if s.Lo < 1 {
			return nil, fmt.Errorf("fixed size %d", s.Lo)
		}
		return workload.Fixed(s.Lo), nil
	case "uniform":
		if s.Lo < 1 || s.Hi < s.Lo {
			return nil, fmt.Errorf("uniform size bounds %d..%d", s.Lo, s.Hi)
		}
		return workload.Uniform{Lo: s.Lo, Hi: s.Hi}, nil
	case "pareto":
		alpha := s.Alpha
		if alpha == 0 {
			alpha = 1.2
		}
		if s.Lo < 1 || s.Hi < s.Lo || alpha <= 0 {
			return nil, fmt.Errorf("pareto size %d..%d alpha %v", s.Lo, s.Hi, alpha)
		}
		return workload.Pareto{Lo: s.Lo, Hi: s.Hi, Alpha: alpha}, nil
	}
	return nil, fmt.Errorf("unknown size dist %q", s.Dist)
}

func (a ArrivalClause) proc() (workload.Arrival, error) {
	switch a.Proc {
	case "back-to-back", "":
		return workload.BackToBack{}, nil
	case "poisson":
		if a.MeanUS < 1 {
			return nil, fmt.Errorf("poisson mean %dus", a.MeanUS)
		}
		return workload.Poisson{Mean: simnet.Duration(a.MeanUS) * simnet.Microsecond}, nil
	case "bursts":
		if a.Burst < 1 || a.GapUS < 0 {
			return nil, fmt.Errorf("bursts of %d gap %dus", a.Burst, a.GapUS)
		}
		return &workload.Bursts{Size: a.Burst, Gap: simnet.Duration(a.GapUS) * simnet.Microsecond}, nil
	}
	return nil, fmt.Errorf("unknown arrival proc %q", a.Proc)
}

func parseClass(s string) (packet.ClassID, error) {
	switch s {
	case "control":
		return packet.ClassControl, nil
	case "small", "":
		return packet.ClassSmall, nil
	case "bulk":
		return packet.ClassBulk, nil
	case "rma":
		return packet.ClassRMA, nil
	}
	return 0, fmt.Errorf("unknown class %q", s)
}

func parseChaosOp(s string) (chaos.Op, error) {
	switch s {
	case "rail-down":
		return chaos.OpRailDown, nil
	case "partition":
		return chaos.OpPartition, nil
	case "crash":
		return chaos.OpCrash, nil
	}
	return 0, fmt.Errorf("unknown chaos op %q (heals are implied by for_ms)", s)
}
