package testnet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// telemetryManifest is a small clean topology with the observability
// sweep on: per-millisecond fleet snapshots, flight recorders, and a
// spool directory for anomaly dumps.
func telemetryManifest(t *testing.T, nodes int) *Manifest {
	t.Helper()
	m := batteryManifest(nodes, 0, *flagSeed)
	m.Chaos = nil
	m.Engine.RdvRetryUS = 0
	m.Telemetry = TelemetryClause{
		SnapshotMS: 1,
		TraceRing:  128,
		SpoolDir:   t.TempDir(),
		SpoolLastN: 32,
	}
	m.applyDefaults()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTestnet_FleetSnapshots proves the periodic sim-clock sweep and the
// final roll-up: snapshots accumulate during the run, the heap still
// drains (the sweep must not keep the simulation alive), and the final
// fleet view carries non-zero delivery-latency histograms merged across
// every engine and role.
func TestTestnet_FleetSnapshots(t *testing.T) {
	m := telemetryManifest(t, 16)
	n, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	res := n.Run()
	if !res.Drained {
		t.Fatal("snapshot sweep kept the event heap alive")
	}
	assertExactlyOnce(t, res)

	if len(n.Snapshots) < 2 {
		t.Fatalf("expected periodic + final snapshots, got %d", len(n.Snapshots))
	}
	fleet := n.Fleet()
	if fleet.Nodes != m.TotalNodes() {
		t.Fatalf("fleet covers %d of %d nodes", fleet.Nodes, m.TotalNodes())
	}
	// Eager deliveries carry the submit stamp end to end; rendezvous
	// payloads are reconstructed at the receiver without one, so the e2e
	// histogram covers the eager subset of deliveries.
	if got := fleet.SpanTotal("e2e").Count(); got == 0 || got > uint64(res.Delivered) {
		t.Fatalf("fleet e2e samples = %d, delivered = %d", got, res.Delivered)
	}
	if fleet.SpanTotal("e2e").Quantile(0.99) <= 0 {
		t.Fatal("fleet p99 delivery latency is zero")
	}
	if fleet.SpanTotal("queue_wait").Count() == 0 {
		t.Fatal("fleet queue-wait histogram empty")
	}
	// Role roll-ups: both roles present, each with merged span histograms.
	if len(fleet.Roles) != 2 {
		t.Fatalf("roles in roll-up: %d", len(fleet.Roles))
	}
	for _, rr := range fleet.Roles {
		if rr.Nodes == 0 {
			t.Fatalf("role %q rolled up zero nodes", rr.Role)
		}
		if len(rr.Spans) == 0 {
			t.Fatalf("role %q has no merged spans", rr.Role)
		}
	}
	// Earlier snapshots are genuinely mid-run: monotone delivery counts.
	first, last := n.Snapshots[0], n.Snapshots[len(n.Snapshots)-1]
	if d0, d1 := first.Totals.Counters["core.delivered"], last.Totals.Counters["core.delivered"]; d0 > d1 {
		t.Fatalf("delivery count regressed across snapshots: %d then %d", d0, d1)
	}
	// A clean run leaves no spool behind.
	if res.SpoolDir != "" {
		t.Fatalf("clean run produced an anomaly spool at %s", res.SpoolDir)
	}
	// The roll-up serializes: this is the CI fleet artifact.
	if _, err := json.Marshal(fleet); err != nil {
		t.Fatal(err)
	}
}

// TestTestnet_SpoolOnAnomaly proves the flight-recorder dump: when the
// ledger shows an anomaly, the involved nodes' trace rings land on disk
// as JSONL, one file per node.
func TestTestnet_SpoolOnAnomaly(t *testing.T) {
	m := telemetryManifest(t, 8)
	n, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Forge a misrouted delivery at node 0. Producing a real one would
	// require breaking the router; the spool trigger reads the ledger, so
	// forging the ledger exercises the identical path.
	n.misrouted = 1
	n.misroutedAt[0] = true

	res := n.Run()
	if res.Misrouted != 1 {
		t.Fatalf("forged misroute not accounted: %+v", res)
	}
	if res.SpoolDir == "" {
		t.Fatal("anomaly produced no spool")
	}
	if !strings.Contains(filepath.Base(res.SpoolDir), "misrouted1") {
		t.Fatalf("spool dir %q does not name the anomaly", res.SpoolDir)
	}
	data, err := os.ReadFile(filepath.Join(res.SpoolDir, "node-0.jsonl"))
	if err != nil {
		t.Fatalf("involved node's ring not dumped: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("spool file empty")
	}
	if len(lines) > m.Telemetry.SpoolLastN {
		t.Fatalf("spool dumped %d events, cap was %d", len(lines), m.Telemetry.SpoolLastN)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("spool line not JSON: %v", err)
	}
	if _, ok := rec["kind"]; !ok {
		t.Fatalf("spool record missing kind: %v", rec)
	}
}
