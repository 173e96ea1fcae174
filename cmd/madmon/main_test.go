package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/cluster"
	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/stats"
	"newmad/internal/telemetry"
)

// boot starts a telemetry-enabled mesh, runs a short all-to-all exchange
// and returns the nodes' endpoint addresses.
func boot(t *testing.T, n int) (*cluster.Cluster, []string) {
	t.Helper()
	c, err := cluster.New(cluster.Options{Nodes: n, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	var got atomic.Int64
	done := make(chan struct{}, 1)
	for i := 0; i < n; i++ {
		c.Session(packet.NodeID(i)).Channel("mon").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
			if got.Add(1) == int64(n*(n-1)) {
				done <- struct{}{}
			}
		})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			conn := c.Session(packet.NodeID(i)).Channel("mon").Connect(packet.NodeID(j))
			msg := conn.BeginPacking()
			msg.Pack([]byte(fmt.Sprintf("m-%d-%d", i, j)), mad.SendCheaper, mad.RecvCheaper)
			msg.EndPacking()
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("exchange incomplete: %d", got.Load())
	}

	eps := make([]string, n)
	for i, node := range c.Nodes {
		eps[i] = node.Telemetry.Addr()
	}
	return c, eps
}

func TestSnapshotMode(t *testing.T) {
	_, eps := boot(t, 3)
	client := &http.Client{Timeout: 5 * time.Second}

	var out strings.Builder
	if err := emitSnapshot(client, eps, &out); err != nil {
		t.Fatal(err)
	}
	var doc Snapshot
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "madmon/v1" {
		t.Fatalf("schema %q", doc.Schema)
	}
	if len(doc.Nodes) != 3 {
		t.Fatalf("snapshot covers %d of 3 nodes", len(doc.Nodes))
	}
	for _, ns := range doc.Nodes {
		if ns.Metrics.Delivered == 0 {
			t.Fatalf("node %d reports no deliveries", ns.Node)
		}
	}
	if doc.Fleet.Nodes != 3 || doc.Fleet.SpanTotal("queue_wait").Count() == 0 {
		t.Fatalf("fleet roll-up missing or empty: %+v", doc.Fleet.Totals)
	}
	if doc.Fleet.Totals.Counters["core.delivered"] == 0 {
		t.Fatalf("fleet totals carry no core.delivered: %+v", doc.Fleet.Totals)
	}
	if doc.Errors != nil {
		t.Fatalf("unexpected errors: %v", doc.Errors)
	}
}

func TestSnapshotModeDeadEndpoint(t *testing.T) {
	_, eps := boot(t, 2)
	client := &http.Client{Timeout: time.Second}

	var out strings.Builder
	if err := emitSnapshot(client, append(eps, "127.0.0.1:1"), &out); err != nil {
		t.Fatal(err)
	}
	var doc Snapshot
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Nodes) != 2 || len(doc.Errors) != 1 {
		t.Fatalf("nodes=%d errors=%v", len(doc.Nodes), doc.Errors)
	}

	if err := emitSnapshot(client, []string{"127.0.0.1:1"}, &out); err == nil {
		t.Fatal("all-dead poll did not error")
	}
}

func TestLiveTable(t *testing.T) {
	_, eps := boot(t, 2)
	client := &http.Client{Timeout: 5 * time.Second}

	var out strings.Builder
	liveTo(client, eps, time.Millisecond, 2, &out)
	table := out.String()
	for _, want := range []string{"node", "dlv/s", "qwait p50/p99 us"} {
		if !strings.Contains(table, want) {
			t.Fatalf("live table missing column %q:\n%s", want, table)
		}
	}
	// Two rounds rendered, each with one row per node.
	if n := strings.Count(table, "madmon "); n != 2 {
		t.Fatalf("rendered %d tables, want 2", n)
	}
}

func TestSplitNodes(t *testing.T) {
	got := splitNodes(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitNodes = %v", got)
	}
	if splitNodes("") != nil {
		t.Fatal("empty input yields endpoints")
	}
}

// TestSpanQuantilesMatchNode: on a one-cell snapshot, madmon quotes the
// quantiles the node itself reported for that cell — the JSON buckets
// rebuild the node's histogram exactly.
func TestSpanQuantilesMatchNode(t *testing.T) {
	h := &stats.Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i * 997))
	}
	cell := telemetry.SpanStat{Span: "e2e", Class: "small", HistStat: telemetry.HistStatOf(h)}
	raw, err := json.Marshal(telemetry.NodeSnapshot{Spans: []telemetry.SpanStat{cell}})
	if err != nil {
		t.Fatal(err)
	}
	var ns telemetry.NodeSnapshot
	if err := json.Unmarshal(raw, &ns); err != nil {
		t.Fatal(err)
	}
	p50, p99, ok := spanQuantiles(&ns, "e2e")
	if !ok || p50 != cell.P50/1e3 || p99 != cell.P99/1e3 {
		t.Fatalf("madmon p50/p99 = %v/%v µs, node reported %v/%v", p50, p99, cell.P50/1e3, cell.P99/1e3)
	}
}
