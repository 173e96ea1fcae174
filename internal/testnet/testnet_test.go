package testnet

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"newmad/internal/chaos"
	"newmad/internal/packet"
)

// The battery is flag-tunable so one binary covers every tier: plain
// `go test` runs a fast default scale, CI smoke runs hundreds of nodes,
// and the nightly (or a laptop replaying a red nightly) runs the full
// thousand:
//
//	go test ./internal/testnet -run TestTestnet -testnet.nodes=2000 -testnet.drop=30 -testnet.seed=42
var (
	flagNodes = flag.Int("testnet.nodes", 0, "testnet battery scale (0 = auto: 48 in -short, 96 otherwise)")
	flagDrop  = flag.Float64("testnet.drop", 10, "control-frame drop percentage for the battery")
	flagSeed  = flag.Uint64("testnet.seed", 42, "seed for the battery manifests")
	flagTrace = flag.String("testnet.trace", "", "write the executed chaos trace to this file (CI failure artifact)")
	flagFleet = flag.String("testnet.fleet", "", "write the battery's final fleet telemetry roll-up (JSON) to this file (CI artifact)")
)

func batteryNodes() int {
	if *flagNodes > 0 {
		return *flagNodes
	}
	if testing.Short() {
		return 48
	}
	return 96
}

// replayHint logs the exact invocation that reproduces a failed run; every
// stochastic decision is a function of the flags, so this is a complete
// repro.
func replayHint(t *testing.T, nodes int, drop float64, seed uint64) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay: go test ./internal/testnet -run '^%s$' -testnet.nodes=%d -testnet.drop=%v -testnet.seed=%d",
				t.Name(), nodes, drop, seed)
		}
	})
}

// batteryManifest builds the canonical chaos topology at the given scale:
// a 3:1 edge/core split over two rails, cross-role and intra-role traffic
// crossing the rendezvous threshold, and a schedule of rail cuts, a group
// partition and a zero-duration blip.
func batteryManifest(nodes int, drop float64, seed uint64) *Manifest {
	if nodes < 8 {
		nodes = 8
	}
	coreN := nodes / 4
	edgeN := nodes - coreN
	m := &Manifest{
		Name:    fmt.Sprintf("battery-%d", nodes),
		Seed:    seed,
		Rails:   2,
		DropPct: drop,
		Engine: EngineTuning{
			Bundle:       "aggregate",
			RdvThreshold: 4096,
			RdvRetryUS:   500,
			RdvRetryMax:  14,
		},
		Roles: []Role{
			{Name: "edge", Count: edgeN, Profile: "tcp"},
			{Name: "core", Count: coreN, Profile: "mx"},
		},
		Workload: []TrafficClause{
			{
				Name: "edge-up", From: "edge", To: "core", Pattern: "random",
				Msgs:    8,
				Size:    SizeClause{Dist: "uniform", Lo: 64, Hi: 12288},
				Arrival: ArrivalClause{Proc: "poisson", MeanUS: 40},
			},
			{
				Name: "core-ring", From: "core", To: "core", Pattern: "pairwise",
				Msgs: 6, Class: "bulk",
				Size:    SizeClause{Dist: "pareto", Lo: 256, Hi: 32768, Alpha: 1.2},
				Arrival: ArrivalClause{Proc: "bursts", Burst: 3, GapUS: 150},
			},
		},
		Chaos: []ChaosClause{
			{AtMS: 1, Op: "rail-down", Group: "edge", Peer: "core", Rail: -1, ForMS: 2, Count: maxInt(1, nodes/16)},
			{AtMS: 2, Op: "partition", Group: "core", ForMS: 1, Count: maxInt(1, coreN/4)},
			{AtMS: 3, Op: "rail-down", Group: "edge", ForMS: 0, Count: 2},
		},
	}
	m.applyDefaults()
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mustRun(t *testing.T, m *Manifest) (*Net, *Result) {
	t.Helper()
	return mustRunRules(t, m, m.FaultRules())
}

// mustRunRules is mustRun with the per-frame fault rules given explicitly.
func mustRunRules(t *testing.T, m *Manifest, rules []chaos.Rule) (*Net, *Result) {
	t.Helper()
	n, err := build(m, rules)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res := n.Run()
	n.Close()
	if !res.Drained {
		t.Fatalf("simulation hit the %d-event guard without draining: %v", m.MaxEvents, res)
	}
	return n, res
}

// assertExactlyOnce is the battery's core claim: every scheduled message
// between live nodes arrives exactly once, no matter what the chaos
// schedule and the drop rate did in between.
func assertExactlyOnce(t *testing.T, res *Result) {
	t.Helper()
	if res.Lost != 0 {
		t.Errorf("%d messages lost between live nodes", res.Lost)
	}
	if res.Duplicates != 0 {
		t.Errorf("%d duplicate deliveries", res.Duplicates)
	}
	if res.Misrouted != 0 {
		t.Errorf("%d misrouted deliveries", res.Misrouted)
	}
	if t.Failed() {
		t.Logf("result: %v", res)
	}
}

// TestTestnet_Boot drives the file loader end to end: parse testdata,
// boot, run, exactly-once.
func TestTestnet_Boot(t *testing.T) {
	m, err := Load("testdata/smoke.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	replayHint(t, m.TotalNodes(), m.DropPct, m.Seed)
	_, res := mustRun(t, m)
	assertExactlyOnce(t, res)
	if res.Submitted == 0 || res.Delivered == 0 {
		t.Fatalf("empty run: %v", res)
	}
	if res.CtrlDropped == 0 {
		t.Errorf("10%% drop injected no control-frame faults: %v", res)
	}
	if res.Refused != 0 || res.CrashLost != 0 {
		t.Errorf("crash casualties without a crash clause: %v", res)
	}
}

// TestTestnet_ExactlyOnceUnderDrop is the scale battery: flag-tunable node
// count and drop rate, zero lost and zero duplicated frames required.
func TestTestnet_ExactlyOnceUnderDrop(t *testing.T) {
	nodes, drop, seed := batteryNodes(), *flagDrop, *flagSeed
	replayHint(t, nodes, drop, seed)
	m := batteryManifest(nodes, drop, seed)
	n, res := mustRun(t, m)
	t.Logf("%v", res)
	assertExactlyOnce(t, res)
	if drop > 0 && res.CtrlDropped == 0 {
		t.Errorf("drop_pct=%v injected no control-frame faults", drop)
	}
	fleet := n.Fleet()
	if fleet.SpanTotal("e2e").Count() == 0 {
		t.Error("battery fleet roll-up has an empty delivery-latency histogram")
	}
	if *flagFleet != "" {
		data, err := json.MarshalIndent(fleet, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(*flagFleet, data, 0o644); err != nil {
			t.Fatalf("writing fleet artifact: %v", err)
		}
	}
}

// TestTestnet_SeedReplayChaosTrace asserts the replay contract: two runs
// of the same manifest produce byte-identical chaos traces and identical
// accounting, and a different seed produces a genuinely different run.
func TestTestnet_SeedReplayChaosTrace(t *testing.T) {
	nodes, drop, seed := batteryNodes(), *flagDrop, *flagSeed
	replayHint(t, nodes, drop, seed)

	n1, r1 := mustRun(t, batteryManifest(nodes, drop, seed))
	n2, r2 := mustRun(t, batteryManifest(nodes, drop, seed))

	if *flagTrace != "" {
		if err := os.WriteFile(*flagTrace, []byte(n1.Trace.String()), 0o644); err != nil {
			t.Fatalf("writing trace artifact: %v", err)
		}
	}

	if n1.Trace.Len() == 0 {
		t.Fatal("battery executed no chaos events")
	}
	if d := n1.Trace.Diff(n2.Trace); d != "" {
		t.Fatalf("same seed, diverging chaos traces: %s", d)
	}
	if n1.Trace.String() != n2.Trace.String() {
		t.Fatal("same seed, traces render differently")
	}
	if *r1 != *r2 {
		t.Fatalf("same seed, diverging accounting:\n  %v\n  %v", r1, r2)
	}

	n3, r3 := mustRun(t, batteryManifest(nodes, drop, seed+1))
	if n1.Trace.Diff(n3.Trace) == "" && *r1 == *r3 {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestTestnet_RulesReplay puts timing faults — Delay and Reorder, on every
// frame kind — on every rail of the multi-rail battery topology, next to
// its control-frame drops and its chaos script. The holds are events on
// the virtual clock, so the run is a pure function of the seed: two
// same-seed runs agree on the whole Result, the chaos trace and every
// injector's fault counts, and delivery stays exactly-once.
func TestTestnet_RulesReplay(t *testing.T) {
	nodes, drop, seed := batteryNodes(), *flagDrop, *flagSeed
	replayHint(t, nodes, drop, seed)

	type faults struct{ delays, reorders uint64 }
	run := func(seed uint64) (*Net, *Result, faults) {
		m := batteryManifest(nodes, drop, seed)
		n, res := mustRunRules(t, m, append(m.FaultRules(),
			chaos.Rule{Kind: chaos.Delay, Prob: 0.1, Delay: 30 * time.Microsecond},
			chaos.Rule{Kind: chaos.Reorder, Prob: 0.1}))
		var f faults
		for _, node := range n.Nodes {
			if len(node.Injectors) != m.Rails {
				t.Fatalf("node %d has %d injectors for %d rails", node.ID, len(node.Injectors), m.Rails)
			}
			for _, inj := range node.Injectors {
				f.delays += inj.Injected(chaos.Delay)
				f.reorders += inj.Injected(chaos.Reorder)
			}
		}
		return n, res, f
	}

	n1, r1, f1 := run(seed)
	n2, r2, f2 := run(seed)
	assertExactlyOnce(t, r1)
	if f1.delays == 0 || f1.reorders == 0 {
		t.Fatalf("timing faults never fired: %+v", f1)
	}
	if drop > 0 && r1.CtrlDropped == 0 {
		t.Errorf("no control frame dropped at %v%%", drop)
	}
	if *r1 != *r2 {
		t.Fatalf("same seed, diverging accounting:\n  %v\n  %v", r1, r2)
	}
	if f1 != f2 {
		t.Fatalf("same seed, diverging fault counts: %+v vs %+v", f1, f2)
	}
	if d := n1.Trace.Diff(n2.Trace); d != "" {
		t.Fatalf("same seed, diverging chaos traces: %s", d)
	}
	if _, r3, f3 := run(seed + 1); *r1 == *r3 && f1 == f3 {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestTestnet_ManifestReorderStability asserts that the order roles appear
// in the file cannot change the run: node IDs are assigned by sorted role
// name and every RNG stream is keyed by identity, so two permutations of
// the same manifest are the same topology.
func TestTestnet_ManifestReorderStability(t *testing.T) {
	replayHint(t, 16, 10, *flagSeed)
	forward := batteryManifest(16, 10, *flagSeed)
	reversed := batteryManifest(16, 10, *flagSeed)
	for i, j := 0, len(reversed.Roles)-1; i < j; i, j = i+1, j-1 {
		reversed.Roles[i], reversed.Roles[j] = reversed.Roles[j], reversed.Roles[i]
	}

	ga, gb := forward.Groups(), reversed.Groups()
	for name, members := range ga {
		if fmt.Sprint(gb[name]) != fmt.Sprint(members) {
			t.Fatalf("group %q differs under role reordering: %v vs %v", name, members, gb[name])
		}
	}

	na, ra := mustRun(t, forward)
	nb, rb := mustRun(t, reversed)
	if d := na.Trace.Diff(nb.Trace); d != "" {
		t.Fatalf("role reordering changed the chaos trace: %s", d)
	}
	if *ra != *rb {
		t.Fatalf("role reordering changed accounting:\n  %v\n  %v", ra, rb)
	}
}

// TestTestnet_CrashAccounting asserts crash semantics: messages touching a
// crashed node become scripted casualties (refused or crash-lost), while
// traffic between live nodes still arrives exactly once.
func TestTestnet_CrashAccounting(t *testing.T) {
	seed := *flagSeed
	replayHint(t, 24, 10, seed)
	m := batteryManifest(24, 10, seed)
	m.Chaos = append(m.Chaos, ChaosClause{AtMS: 0, Op: "crash", Group: "core", Count: 2})
	n, res := mustRun(t, m)
	t.Logf("%v", res)
	assertExactlyOnce(t, res)
	if res.Refused+res.CrashLost == 0 {
		t.Errorf("two crashed core nodes produced no casualties: %v", res)
	}
	crashed := 0
	for _, node := range n.Nodes {
		if node.crashed {
			crashed++
		}
	}
	if crashed != 2 {
		t.Fatalf("%d nodes crashed, want 2", crashed)
	}
}

// TestTestnet_FlooderSoak is the misbehaving-tenant soak (the nightly
// -race lane runs it repeatedly): a manifest with a quota'd flooder role
// offering ~10× its admitted rate next to protected app traffic. The
// flood must be absorbed at the admission edge — throttle refusals, all
// of them explicit and none counted as lost — while every admitted
// packet still arrives exactly once, protected flows see no refusals at
// all, and the fleet telemetry roll-up carries the flooder's refusal
// counters.
func TestTestnet_FlooderSoak(t *testing.T) {
	m, err := Load("testdata/flooder.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	replayHint(t, m.TotalNodes(), m.DropPct, m.Seed)
	n, res := mustRun(t, m)
	t.Logf("%v", res)
	assertExactlyOnce(t, res)
	if res.Throttled == 0 {
		t.Fatalf("flooder at 10x quota produced no throttle refusals: %v", res)
	}
	if res.Refused != res.Throttled {
		t.Errorf("non-admission refusals without a crash clause: %v", res)
	}
	if res.Delivered != res.Submitted-res.Refused {
		t.Errorf("ledger: %d delivered != %d submitted - %d refused", res.Delivered, res.Submitted, res.Refused)
	}
	const flooder = packet.TenantID(3)
	for _, f := range n.flows {
		if f.Tenant != flooder && n.refused[f.Flow] != 0 {
			t.Errorf("protected tenant %d flow %d saw %d refusals", f.Tenant, f.Flow, n.refused[f.Flow])
		}
	}
	fleet := n.Registry.Fleet()
	var seen bool
	for _, tm := range fleet.Tenants {
		if tm.Tenant == flooder {
			seen = true
			if tm.Throttled == 0 {
				t.Errorf("fleet roll-up shows no throttles for the flooder: %+v", tm)
			}
		}
	}
	if !seen {
		t.Error("fleet roll-up has no row for the flooder tenant")
	}
}
