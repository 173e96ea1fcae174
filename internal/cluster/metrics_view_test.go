package cluster

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/strategy"
	"newmad/internal/telemetry"
)

// runViewTraffic boots a two-node, two-rail raw cluster, pushes eager and
// rendezvous packets both ways with one rail severed mid-stream, and
// returns once everything has been delivered.
func runViewTraffic(t *testing.T, telemetryOn bool) *Cluster {
	t.Helper()
	const perSide = 120
	var delivered atomic.Int64
	c, err := New(Options{
		Nodes: 2, Rails: caps.RailProfiles(caps.TCP, 2), Raw: true, Telemetry: telemetryOn,
		OnDeliver: func(packet.NodeID, proto.Deliverable) { delivered.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for n := packet.NodeID(0); n < 2; n++ {
		if err := c.Engine(n).SetKnobs(strategy.Knobs{RdvThreshold: 8192}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < perSide; i++ {
		size := 512
		if i%12 == 11 {
			size = 32 << 10 // rendezvous
		}
		for n := packet.NodeID(0); n < 2; n++ {
			p := &packet.Packet{
				Flow: packet.FlowID(n + 1), Msg: 1, Seq: i, Src: n, Dst: 1 - n,
				Class: packet.ClassSmall, Payload: make([]byte, size),
			}
			if err := c.Engine(n).Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		if i == perSide/2 {
			// Severed for good: work striped onto rail 0 falls through to
			// rail 1 in the pump.
			c.Nodes[0].Rails[0].BreakPeer(1)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < 2*perSide {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d of %d", delivered.Load(), 2*perSide)
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

// TestClusterSetViewMatchesMetrics is the private-Set half of the
// one-metrics-path contract (core.TestSetViewMatchesMetrics pins the name
// table itself on shared Sets): on every node of a live mesh, each quantity
// the engine names reads the same from the node's Set as from its Metrics.
func TestClusterSetViewMatchesMetrics(t *testing.T) {
	c := runViewTraffic(t, false)
	check := func(n *Node) error {
		m := n.Engine.Metrics()
		var err error
		names := 0
		m.Each(func(name string, v uint64) {
			names++
			if got := n.Stats.CounterValue(name); got != v && err == nil {
				err = fmt.Errorf("%s = %d by name, %d in Metrics", name, got, v)
			}
		}, func(name string, v float64) {
			if got, ok := n.Stats.Gauge(name); (!ok || got != v) && err == nil {
				err = fmt.Errorf("gauge %s = %v (%v) by name, %v in Metrics", name, got, ok, v)
			}
		})
		if names < 20 {
			return fmt.Errorf("engine names only %d counters", names)
		}
		for ri, r := range n.Rails {
			name := "core.rail." + r.Caps().Name + ".frames"
			if got := n.Stats.CounterValue(name); got != m.RailFrames[ri] && err == nil {
				err = fmt.Errorf("%s = %d by name, %d in Metrics", name, got, m.RailFrames[ri])
			}
		}
		if m.Delivered == 0 || m.RdvGranted == 0 {
			return fmt.Errorf("scenario left the node idle: %+v", m.Counters)
		}
		return err
	}
	// Wall-clock engines: a trailing idle upcall can land between the two
	// reads, so settle rather than demand the first comparison hold.
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.Nodes {
		err := check(n)
		for err != nil && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			err = check(n)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if m := c.Engine(0).Metrics(); m.RailDowns[0]+m.RailDowns[1] == 0 {
		t.Fatal("the severed rail was never counted")
	}
}

// TestPromScrapeNamesEachQuantityOnce scrapes a live node — whose private
// Set is attached to its telemetry source — and checks the one-name rule:
// every engine quantity appears in exactly one family, nothing from the Set
// re-reports an engine counter, and the e2e span is the only
// delivery-latency histogram.
func TestPromScrapeNamesEachQuantityOnce(t *testing.T) {
	c := runViewTraffic(t, true)
	ns, ok := c.Registry.Snapshot(0)
	if !ok {
		t.Fatal("node 0 not registered")
	}
	if len(ns.Hists) == 0 {
		t.Fatal("the node's Set is not attached to its telemetry source")
	}
	var b strings.Builder
	telemetry.WriteProm(&b, ns)

	families := map[string]string{} // family -> type
	for _, ln := range strings.Split(b.String(), "\n") {
		f := strings.Fields(ln)
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if _, dup := families[f[2]]; dup {
				t.Errorf("family %s declared twice", f[2])
			}
			families[f[2]] = f[3]
		}
	}
	ns.Metrics.Each(func(name string, _ uint64) {
		base := strings.TrimPrefix(name, "core.")
		if families["newmad_"+base+"_total"] != "counter" {
			t.Errorf("engine counter %s has no family", name)
		}
		if _, dup := families["newmad_core_"+base+"_total"]; dup {
			t.Errorf("engine counter %s is also reported from the Set", name)
		}
	}, func(name string, _ float64) {
		base := strings.TrimPrefix(name, "core.")
		if _, dup := families["newmad_core_"+base]; dup || families["newmad_"+base] != "gauge" {
			t.Errorf("engine gauge %s: want exactly one family", name)
		}
	})
	for fam, typ := range families {
		if typ != "histogram" {
			if strings.HasPrefix(fam, "newmad_core_") {
				t.Errorf("family %s re-reports an engine quantity from the Set", fam)
			}
			continue
		}
		if fam != "newmad_span_ns" && !strings.HasPrefix(fam, "newmad_core_plan_") {
			t.Errorf("unexpected histogram family %s: newmad_span_ns is the only latency histogram", fam)
		}
	}
	if !strings.Contains(b.String(), `newmad_span_ns_bucket{span="queue_wait"`) {
		t.Error("scrape carries no span histogram")
	}
}
