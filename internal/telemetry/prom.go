package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"newmad/internal/core"
	"newmad/internal/stats"
)

// Prometheus text exposition, hand-written against the v0.0.4 format so
// the repo stays stdlib-only. Histograms are rendered as cumulative
// buckets at the inclusive upper bound of each non-empty bucket the
// stats.Histogram keeps (stats.BucketBounds), then le="+Inf", so a
// scraper's histogram_quantile sees the true bucket layout rather than a
// lossy re-binning.

// promName lowercases and maps every non-[a-z0-9_] byte to '_' — the
// stats.Set convention is dotted names ("chaos.faults.raildrop"), the
// Prometheus convention is underscores.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			b.WriteByte(c - 'A' + 'a')
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promHead(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promHist writes one histogram family sample set under name with the
// given label pairs (already formatted as `k="v"` fragments).
func promHist(w io.Writer, name, labels string, hs HistStat) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for _, b := range hs.Bkts {
		cum += b.N
		_, le := stats.BucketBounds(b.Idx)
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, hs.Count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, hs.Sum, name, hs.Count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, hs.Sum, name, labels, hs.Count)
	}
}

// engineCounter and engineGauge render one engine quantity under core's
// set name, so a node and its fleet name it alike: "core.submitted" is
// newmad_submitted_total, "core.backlog" is newmad_backlog.
func engineCounter(w io.Writer, name string, v uint64) {
	pn := "newmad_" + promName(strings.TrimPrefix(name, "core.")) + "_total"
	promHead(w, pn, "counter", "Engine counter "+name+".")
	fmt.Fprintf(w, "%s %d\n", pn, v)
}

func engineGauge(w io.Writer, name string, v float64) {
	pn := "newmad_" + promName(strings.TrimPrefix(name, "core."))
	promHead(w, pn, "gauge", "Engine gauge "+name+".")
	fmt.Fprintf(w, "%s %g\n", pn, v)
}

// WriteProm renders one node's snapshot in Prometheus text format. The
// engine's quantities come from its Metrics through core's one name table;
// the snapshot's Counters/Hists maps hold only what the node's Set stores
// itself, so no engine quantity appears under two families.
func WriteProm(w io.Writer, ns NodeSnapshot) {
	m := &ns.Metrics
	m.Each(func(name string, v uint64) { engineCounter(w, name, v) },
		func(name string, v float64) { engineGauge(w, name, v) })

	if len(m.RailFrames) > 0 {
		promHead(w, "newmad_rail_frames_total", "counter", "Frames posted per rail.")
		for i, v := range m.RailFrames {
			fmt.Fprintf(w, "newmad_rail_frames_total{rail=\"%d\"} %d\n", i, v)
		}
	}

	if len(ns.Spans) > 0 {
		promHead(w, "newmad_span_ns", "histogram", "Packet lifecycle span latency in nanoseconds.")
		for _, sp := range ns.Spans {
			labels := fmt.Sprintf("span=%q,class=%q,rail=\"%d\"", sp.Span, sp.Class, sp.Rail)
			promHist(w, "newmad_span_ns", labels, sp.HistStat)
		}
	}
	writeTenantProm(w, m.Tenants)

	writeSetProm(w, ns.Counters, ns.Hists)
}

// WriteFleetProm renders the fleet roll-up in Prometheus text format, with
// every engine family WriteProm has except the per-rail frame counts.
func WriteFleetProm(w io.Writer, fs FleetSnapshot) {
	for _, n := range sortedKeys(fs.Totals.Counters) {
		engineCounter(w, n, fs.Totals.Counters[n])
	}
	for _, n := range sortedKeys(fs.Totals.Gauges) {
		engineGauge(w, n, fs.Totals.Gauges[n])
	}
	promHead(w, "newmad_fleet_nodes", "gauge", "Engines registered in this fleet.")
	fmt.Fprintf(w, "newmad_fleet_nodes %d\n", fs.Nodes)

	if len(fs.Spans) > 0 {
		promHead(w, "newmad_span_ns", "histogram", "Fleet-wide packet lifecycle span latency in nanoseconds.")
		for _, sp := range fs.Spans {
			labels := fmt.Sprintf("span=%q,class=%q,rail=\"%d\"", sp.Span, sp.Class, sp.Rail)
			promHist(w, "newmad_span_ns", labels, sp.HistStat)
		}
	}
	writeTenantProm(w, fs.Tenants)
	writeSetProm(w, fs.Counters, fs.Hists)
}

// writeTenantProm renders the per-tenant admission families — one sample
// per tenant, labeled tenant="N". Absent entirely when admission control
// is disabled, so quota-free deployments see no dead series.
func writeTenantProm(w io.Writer, tenants []core.TenantMetrics) {
	if len(tenants) == 0 {
		return
	}
	type tenantRow struct {
		name, typ, help string
		v               func(*core.TenantMetrics) string
	}
	rows := []tenantRow{
		{"newmad_tenant_submitted_total", "counter", "Packets admitted per tenant.",
			func(t *core.TenantMetrics) string { return fmt.Sprintf("%d", t.Submitted) }},
		{"newmad_tenant_rate_refused_total", "counter", "Packets refused by the tenant's rate limit.",
			func(t *core.TenantMetrics) string { return fmt.Sprintf("%d", t.Throttled) }},
		{"newmad_tenant_quota_refused_total", "counter", "Packets refused by the tenant's backlog quota.",
			func(t *core.TenantMetrics) string { return fmt.Sprintf("%d", t.OverQuota) }},
		{"newmad_tenant_backlog", "gauge", "Packets the tenant has queued but unplanned.",
			func(t *core.TenantMetrics) string { return fmt.Sprintf("%d", t.Backlog) }},
		{"newmad_tenant_rate_pps", "gauge", "The tenant's admission rate currently in effect (0 = unlimited).",
			func(t *core.TenantMetrics) string { return fmt.Sprintf("%g", t.RatePPS) }},
	}
	for _, r := range rows {
		promHead(w, r.name, r.typ, r.help)
		for i := range tenants {
			fmt.Fprintf(w, "%s{tenant=\"%d\"} %s\n", r.name, tenants[i].Tenant, r.v(&tenants[i]))
		}
	}
}

// writeSetProm renders a snapshot's stats.Set maps, one Prometheus
// family per name.
func writeSetProm(w io.Writer, ctrs map[string]uint64, hists map[string]HistStat) {
	for _, n := range sortedKeys(ctrs) {
		pn := "newmad_" + promName(n) + "_total"
		promHead(w, pn, "counter", "Experiment counter "+n+".")
		fmt.Fprintf(w, "%s %d\n", pn, ctrs[n])
	}
	for _, n := range sortedKeys(hists) {
		pn := "newmad_" + promName(n)
		promHead(w, pn, "histogram", "Experiment histogram "+n+".")
		promHist(w, pn, "", hists[n])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
