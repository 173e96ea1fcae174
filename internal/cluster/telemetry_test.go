package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/mad"
	"newmad/internal/packet"
	"newmad/internal/telemetry"
)

// TestClusterTelemetry boots a mesh with the observability surface on and
// scrapes a node's HTTP endpoint: Prometheus text with populated latency
// histograms, a JSON fleet roll-up covering every node, and the pprof and
// expvar debug pages.
func TestClusterTelemetry(t *testing.T) {
	const n = 3
	c, err := New(Options{Nodes: n, Telemetry: true, TraceRing: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var got atomic.Int64
	done := make(chan struct{}, 1)
	for i := 0; i < n; i++ {
		c.Session(packet.NodeID(i)).Channel("tel").OnMessage(func(src packet.NodeID, m *mad.Incoming) {
			if got.Add(1) == n*(n-1) {
				done <- struct{}{}
			}
		})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			conn := c.Session(packet.NodeID(i)).Channel("tel").Connect(packet.NodeID(j))
			msg := conn.BeginPacking()
			msg.Pack([]byte(fmt.Sprintf("m-%d-%d", i, j)), mad.SendCheaper, mad.RecvCheaper)
			msg.EndPacking()
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("exchange incomplete: %d of %d", got.Load(), n*(n-1))
	}

	addr := c.Nodes[0].Telemetry.Addr()
	if addr == "" {
		t.Fatal("telemetry server not listening")
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	prom := get("/metrics")
	// Over a real wire the sender-side stamps survive (queue-wait) while
	// cross-node stamps (e2e, xmit) do not — Packet.Enqueued and
	// Frame.Posted are in-memory diagnostics that never hit the encoder,
	// and cross-machine clocks could not compare them anyway. The
	// simulated testnet covers the full span taxonomy.
	for _, want := range []string{
		"# TYPE newmad_span_ns histogram",
		`newmad_span_ns_bucket{span="queue_wait"`,
		"newmad_delivered_total",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, prom)
		}
	}

	// The registry is shared: node 0's endpoint answers for node 2 too.
	if peer := get("/metrics?node=2"); !strings.Contains(peer, `newmad_span_ns_bucket{span="queue_wait"`) {
		t.Fatalf("/metrics?node=2 has no latency spans:\n%s", peer)
	}

	var fs telemetry.FleetSnapshot
	if err := json.Unmarshal([]byte(get("/fleet.json")), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Nodes != n {
		t.Fatalf("fleet nodes = %d, want %d", fs.Nodes, n)
	}
	if fs.Totals.Counters["core.delivered"] == 0 {
		t.Fatal("fleet saw no deliveries")
	}
	if fs.SpanTotal("queue_wait").Count() == 0 {
		t.Fatal("fleet queue-wait latency histogram empty")
	}

	if !strings.Contains(get("/debug/pprof/"), "goroutine") {
		t.Fatal("pprof index not served")
	}
	if !strings.Contains(get("/debug/vars"), "memstats") {
		t.Fatal("expvar not served")
	}

	// The flight-recorder ring saw the run.
	if c.Nodes[0].Trace == nil || c.Nodes[0].Trace.Total() == 0 {
		t.Fatal("trace ring empty with TraceRing set")
	}
}
