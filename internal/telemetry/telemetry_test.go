package telemetry_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"newmad/internal/core"
	"newmad/internal/exp"
	"newmad/internal/packet"
	"newmad/internal/stats"
	"newmad/internal/telemetry"
)

// rig builds a small cluster, pushes msgs packets from every node to its
// successor, runs it dry and returns a populated registry.
func rig(t *testing.T, nodes, msgs int) (*exp.Rig, *telemetry.Registry) {
	t.Helper()
	r, err := exp.NewRig(exp.RigOptions{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		src := packet.NodeID(n)
		dst := packet.NodeID((n + 1) % nodes)
		for q := 0; q < msgs; q++ {
			p := &packet.Packet{
				Flow: packet.FlowID(n + 1), Msg: packet.MsgID(q), Seq: q, Last: true,
				Src: src, Dst: dst, Class: packet.ClassSmall,
				Payload: make([]byte, 128),
			}
			if err := r.Engines[src].Submit(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.Cl.Eng.Run()

	reg := telemetry.NewRegistry()
	for n := 0; n < nodes; n++ {
		role := "worker"
		if n == 0 {
			role = "leader"
		}
		reg.Register(telemetry.Source{
			Node:   packet.NodeID(n),
			Role:   role,
			Engine: r.Engines[packet.NodeID(n)],
		})
	}
	reg.SetFleetStats(r.Cl.Stats)
	return r, reg
}

func TestNodeSnapshot(t *testing.T) {
	r, reg := rig(t, 3, 16)
	ns, ok := reg.Snapshot(0)
	if !ok {
		t.Fatal("node 0 not registered")
	}
	if ns.Schema != telemetry.Schema || ns.Node != 0 || ns.Role != "leader" {
		t.Fatalf("snapshot header wrong: %+v", ns)
	}
	if ns.Metrics.Submitted != 16 {
		t.Fatalf("submitted = %d, want 16", ns.Metrics.Submitted)
	}
	var qw, e2e uint64
	for _, sp := range ns.Spans {
		switch sp.Span {
		case "queue_wait":
			qw += sp.Count
		case "e2e":
			e2e += sp.Count
		}
		if sp.Class == "" {
			t.Fatalf("span %q missing class name", sp.Span)
		}
	}
	if qw != 16 {
		t.Fatalf("queue-wait samples = %d, want 16", qw)
	}
	if e2e != 16 { // node 0 receives node 2's 16 packets
		t.Fatalf("e2e samples = %d, want 16", e2e)
	}
	if _, ok := reg.Snapshot(99); ok {
		t.Fatal("snapshot of unknown node succeeded")
	}
	_ = r
}

func TestFleetRollup(t *testing.T) {
	r, reg := rig(t, 4, 8)
	fs := reg.Fleet()
	if fs.Nodes != 4 {
		t.Fatalf("fleet nodes = %d", fs.Nodes)
	}
	if fs.Totals.Counters["core.submitted"] != 32 || fs.Totals.Counters["core.delivered"] != 32 {
		t.Fatalf("fleet totals: %+v", fs.Totals)
	}
	if fs.SpanTotal("e2e").Count() != 32 {
		t.Fatalf("fleet e2e count = %d, want 32", fs.SpanTotal("e2e").Count())
	}
	if fs.SpanTotal("e2e").Quantile(0.99) <= 0 {
		t.Fatal("fleet e2e p99 is zero")
	}

	// Role roll-up: 1 leader + 3 workers, every node saw 8 deliveries.
	if len(fs.Roles) != 2 {
		t.Fatalf("roles = %d, want 2", len(fs.Roles))
	}
	byRole := map[string]telemetry.RoleRollup{}
	for _, rr := range fs.Roles {
		byRole[rr.Role] = rr
	}
	if byRole["leader"].Nodes != 1 || byRole["worker"].Nodes != 3 {
		t.Fatalf("role node counts: %+v", byRole)
	}
	if got := byRole["worker"].Totals.Counters["core.delivered"]; got != 24 {
		t.Fatalf("worker deliveries = %d, want 24", got)
	}
	var workerE2E uint64
	for _, sp := range byRole["worker"].Spans {
		if sp.Span == "e2e" {
			workerE2E = sp.Count
		}
	}
	if workerE2E != 24 {
		t.Fatalf("worker merged e2e count = %d, want 24", workerE2E)
	}

	// The shared cluster stats set rides along once, at fleet level.
	if len(fs.Hists) == 0 && len(fs.Counters) == 0 {
		t.Log("cluster stats set empty (acceptable), counters:", fs.Counters)
	}

	// JSON round-trip: the wire form reconstructs mergeable histograms.
	raw, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.FleetSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.SpanTotal("e2e").Count(); got != 32 {
		t.Fatalf("round-tripped e2e count = %d, want 32", got)
	}
	_ = r
}

func TestHistStatRoundTrip(t *testing.T) {
	h := &stats.Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	hs := telemetry.HistStatOf(h)
	if hs.Count != 1000 || hs.P50 <= 0 || hs.P99 < hs.P50 {
		t.Fatalf("bad summary: %+v", hs)
	}
	back := hs.Histogram()
	if back.Count() != 1000 || back.Sum() != h.Sum() {
		t.Fatalf("reconstruction lost mass: count=%d sum=%g", back.Count(), back.Sum())
	}
	// The rebuilt histogram holds the node's counts: a JSON consumer
	// reads the quantiles the node reported.
	for _, c := range []struct{ q, node float64 }{{0.50, hs.P50}, {0.95, hs.P95}, {0.99, hs.P99}} {
		if got := back.Quantile(c.q); got != c.node || got != h.Quantile(c.q) {
			t.Fatalf("round-trip q%.2f = %g, node reported %g", c.q, got, c.node)
		}
	}
}

// TestPromBucketBounds: every `le` a histogram renders is a true
// inclusive bound — the cumulative count there equals the number of
// samples <= le.
func TestPromBucketBounds(t *testing.T) {
	samples := []float64{0, 0.5, 1, 5, 63, 64, 127, 127.5, 128, 129, 130, 1000, 1007, 1008, 4095, 4096, 4097, 1e6, 123456789}
	h := &stats.Histogram{}
	for _, v := range samples {
		h.Add(v)
	}
	var b strings.Builder
	telemetry.WriteProm(&b, telemetry.NodeSnapshot{Hists: map[string]telemetry.HistStat{"x": telemetry.HistStatOf(h)}})
	seen := 0
	for _, ln := range strings.Split(b.String(), "\n") {
		var bound string
		var cum int
		if _, err := fmt.Sscanf(ln, "newmad_x_bucket{le=%q} %d", &bound, &cum); err != nil || bound == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(bound, 64)
		if err != nil {
			t.Fatalf("unparseable le in %q", ln)
		}
		want := 0
		for _, v := range samples {
			if v <= le {
				want++
			}
		}
		if cum != want {
			t.Fatalf("le=%g: cumulative count %d, samples <= le %d", le, cum, want)
		}
		seen++
	}
	if seen != len(h.Buckets()) {
		t.Fatalf("checked %d le bounds, histogram has %d buckets:\n%s", seen, len(h.Buckets()), b.String())
	}
}

// FuzzHistStatJSON feeds arbitrary bytes to the wire form madmon reads off
// the network: rebuilding, querying, merging and re-summarizing must not
// panic, and every quantile stays inside [Min, Max].
func FuzzHistStatJSON(f *testing.F) {
	h := &stats.Histogram{}
	for i := 1; i <= 100; i++ {
		h.Add(float64(i * i))
	}
	good, _ := json.Marshal(telemetry.HistStatOf(h))
	f.Add(good)
	f.Add([]byte(`{"count":5,"sum":10,"min":1,"max":9,"buckets":[{"idx":-3,"n":2},{"idx":999999999999,"n":7}]}`))
	f.Add([]byte(`{"count":3,"min":1,"max":2000,"buckets":[{"idx":900,"n":18446744073709551615},{"idx":2,"n":1}]}`))
	f.Add([]byte(`{"count":100,"min":50,"max":40,"buckets":[{"idx":7,"n":1}]}`))
	f.Add([]byte(`{"count":18446744073709551516,"min":2,"max":3,"buckets":[{"idx":2,"n":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var hs telemetry.HistStat
		if json.Unmarshal(data, &hs) != nil {
			return
		}
		r := hs.Histogram()
		for _, b := range r.Buckets() {
			if _, up := stats.BucketBounds(b.Idx); b.Idx < 0 || up > 0x1p64 {
				t.Fatalf("rebuilt bucket %d outside the layout", b.Idx)
			}
		}
		m := &stats.Histogram{}
		m.Merge(h)
		m.Merge(r)
		for _, x := range []*stats.Histogram{r, m} {
			for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
				if v := x.Quantile(q); v < x.Min() || v > x.Max() {
					t.Fatalf("Quantile(%v) = %v outside [%v, %v]", q, v, x.Min(), x.Max())
				}
			}
		}
		telemetry.HistStatOf(m)
	})
}

func TestPromExposition(t *testing.T) {
	_, reg := rig(t, 2, 8)
	ns, _ := reg.Snapshot(1)
	var b strings.Builder
	telemetry.WriteProm(&b, ns)
	out := b.String()

	for _, want := range []string{
		"# TYPE newmad_submitted_total counter",
		"newmad_submitted_total 8",
		"# TYPE newmad_span_ns histogram",
		`newmad_span_ns_bucket{span="e2e",class="small",rail="0",le="+Inf"} 8`,
		"# TYPE newmad_backlog gauge",
		"newmad_backlog 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q in:\n%s", want, out)
		}
	}

	// Cumulative bucket counts never decrease and end at _count.
	var prev uint64
	for _, ln := range strings.Split(out, "\n") {
		if !strings.HasPrefix(ln, `newmad_span_ns_bucket{span="e2e"`) {
			continue
		}
		var n uint64
		if _, err := fmt.Sscanf(ln[strings.LastIndex(ln, "} ")+2:], "%d", &n); err != nil {
			t.Fatalf("unparseable sample %q: %v", ln, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative at %q", ln)
		}
		prev = n
	}
	if prev != 8 {
		t.Fatalf("final cumulative bucket = %d, want 8", prev)
	}

	var fb strings.Builder
	telemetry.WriteFleetProm(&fb, reg.Fleet())
	if !strings.Contains(fb.String(), "newmad_fleet_nodes 2") {
		t.Fatalf("fleet prom missing node gauge:\n%s", fb.String())
	}
}

// promFamilies parses a Prometheus text scrape into its declared families
// (name -> type) and its unlabelled samples (name -> value). A family
// declared twice fails the test: a Prometheus parser rejects the scrape.
func promFamilies(t *testing.T, text string) (types map[string]string, values map[string]float64) {
	t.Helper()
	types, values = map[string]string{}, map[string]float64{}
	for _, ln := range strings.Split(text, "\n") {
		f := strings.Fields(ln)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			if _, dup := types[f[2]]; dup {
				t.Errorf("family %s declared twice", f[2])
			}
			types[f[2]] = f[3]
		case len(f) == 2 && f[0] != "#" && !strings.Contains(f[0], "{"):
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("unparseable sample %q", ln)
			}
			values[f[0]] = v
		}
	}
	return types, values
}

// TestFleetPromParity: the fleet scrape carries every family a node's
// scrape does, under the same name, except the per-rail frame counts; each
// fleet counter is the nodes' sum and each gauge the largest node's value.
// Node 1 has a quota table, so the per-tenant families and the engine's
// tenant totals are on both scrapes and must not share a name.
func TestFleetPromParity(t *testing.T) {
	r, reg := rig(t, 2, 8)
	if err := r.Engines[1].SetTenantQuota(1, core.TenantQuota{Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	var fb strings.Builder
	telemetry.WriteFleetProm(&fb, reg.Fleet())
	fleetTypes, fleetVals := promFamilies(t, fb.String())

	sum, max := map[string]float64{}, map[string]float64{}
	for node := packet.NodeID(0); node < 2; node++ {
		ns, _ := reg.Snapshot(node)
		var b strings.Builder
		telemetry.WriteProm(&b, ns)
		types, vals := promFamilies(t, b.String())
		for fam, typ := range types {
			if fam == "newmad_rail_frames_total" {
				continue
			}
			if fleetTypes[fam] != typ {
				t.Errorf("node %d family %s (%s) is %q on the fleet", node, fam, typ, fleetTypes[fam])
			}
		}
		for fam, v := range vals {
			sum[fam] += v
			if v > max[fam] {
				max[fam] = v
			}
		}
	}
	if sum["newmad_delivered_total"] != 16 {
		t.Fatalf("nodes delivered %v, want 16", sum["newmad_delivered_total"])
	}
	if fleetTypes["newmad_tenant_rate_refused_total"] != "counter" {
		t.Fatal("the fleet scrape carries no per-tenant families")
	}
	for fam, s := range sum {
		want := s
		if fleetTypes[fam] == "gauge" {
			want = max[fam]
		}
		if got, ok := fleetVals[fam]; !ok || got != want {
			t.Errorf("fleet %s = %v (present %v), want %v", fam, got, ok, want)
		}
	}
}

func TestHTTPServer(t *testing.T) {
	_, reg := rig(t, 2, 4)
	srv := telemetry.NewServer(reg, 0)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "newmad_span_ns_bucket") {
		t.Fatalf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/metrics?node=1"); code != 200 || !strings.Contains(body, "newmad_delivered_total 4") {
		t.Fatalf("/metrics?node=1: %d\n%s", code, body)
	}
	if code, _ := get("/metrics?node=7"); code != 404 {
		t.Fatalf("/metrics?node=7 returned %d, want 404", code)
	}
	for _, q := range []string{"1abc", "0x1", "1%202"} {
		if code, _ := get("/metrics?node=" + q); code != 400 {
			t.Fatalf("/metrics?node=%s returned %d, want 400", q, code)
		}
	}

	code, body := get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json: %d", code)
	}
	var ns telemetry.NodeSnapshot
	if err := json.Unmarshal([]byte(body), &ns); err != nil {
		t.Fatalf("/metrics.json not a NodeSnapshot: %v", err)
	}
	if ns.Schema != telemetry.Schema || ns.Metrics.Submitted != 4 {
		t.Fatalf("unexpected snapshot: %+v", ns)
	}

	code, body = get("/fleet.json")
	if code != 200 {
		t.Fatalf("/fleet.json: %d", code)
	}
	var fs telemetry.FleetSnapshot
	if err := json.Unmarshal([]byte(body), &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Nodes != 2 || fs.SpanTotal("e2e").Count() != 8 {
		t.Fatalf("fleet over HTTP: nodes=%d e2e=%d", fs.Nodes, fs.SpanTotal("e2e").Count())
	}

	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: %d", code)
	}
}
