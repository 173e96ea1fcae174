// Command madmon is the live monitoring surface over a running newmad
// mesh: it polls the telemetry endpoints cluster nodes expose (see
// internal/telemetry), smooths activity counters into rates, and renders
// one table row per node — delivery rate, latency quantiles, rail health,
// failover pressure. With -snapshot it polls once and emits a single JSON
// document (per-node snapshots plus the fleet roll-up) for CI artifacts.
//
//	madmon -nodes 127.0.0.1:9101,127.0.0.1:9102
//	madmon -nodes 127.0.0.1:9101 -snapshot > fleet.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"newmad/internal/stats"
	"newmad/internal/telemetry"
)

func main() {
	var (
		nodes    = flag.String("nodes", "", "comma-separated telemetry endpoints (host:port), one per node")
		interval = flag.Duration("interval", time.Second, "poll period in live mode")
		rounds   = flag.Int("rounds", 0, "stop after this many polls (0 = run until interrupted)")
		snapshot = flag.Bool("snapshot", false, "poll once and emit one JSON document to stdout")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	)
	flag.Parse()
	endpoints := splitNodes(*nodes)
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "madmon: -nodes is required (comma-separated host:port telemetry endpoints)")
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}

	if *snapshot {
		if err := emitSnapshot(client, endpoints, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "madmon:", err)
			os.Exit(1)
		}
		return
	}
	live(client, endpoints, *interval, *rounds)
}

func splitNodes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Snapshot is madmon's one-shot CI document: every node's telemetry plus
// the fleet roll-up, under one schema tag.
type Snapshot struct {
	Schema string `json:"schema"`
	At     string `json:"at"`
	// Nodes holds the answering nodes' snapshots, ordered by node ID;
	// Errors maps each address that did not answer to its error.
	Nodes  []telemetry.NodeSnapshot `json:"nodes"`
	Errors map[string]string        `json:"errors,omitempty"`
	Fleet  telemetry.FleetSnapshot  `json:"fleet"`
}

// emitSnapshot polls every endpoint once. The fleet roll-up comes from
// the first answering endpoint — the registry is cluster-shared, so any
// node can answer for the mesh.
func emitSnapshot(client *http.Client, endpoints []string, w io.Writer) error {
	doc := Snapshot{
		Schema: "madmon/v1",
		At:     time.Now().UTC().Format(time.RFC3339),
		Errors: map[string]string{},
	}
	fleetDone := false
	for _, ep := range endpoints {
		var ns telemetry.NodeSnapshot
		if err := getJSON(client, "http://"+ep+"/metrics.json", &ns); err != nil {
			doc.Errors[ep] = err.Error()
			continue
		}
		doc.Nodes = append(doc.Nodes, ns)
		if !fleetDone {
			if err := getJSON(client, "http://"+ep+"/fleet.json", &doc.Fleet); err == nil {
				fleetDone = true
			}
		}
	}
	if len(doc.Nodes) == 0 {
		return fmt.Errorf("no endpoint answered (%d tried)", len(endpoints))
	}
	if len(doc.Errors) == 0 {
		doc.Errors = nil
	}
	sort.Slice(doc.Nodes, func(i, j int) bool { return doc.Nodes[i].Node < doc.Nodes[j].Node })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// meterSet smooths one node's cumulative counters into rates.
type meterSet struct {
	delivered *stats.RateMeter
	frames    *stats.RateMeter
}

func newMeterSet(halfLife time.Duration) *meterSet {
	return &meterSet{
		delivered: stats.NewRateMeter(halfLife.Nanoseconds()),
		frames:    stats.NewRateMeter(halfLife.Nanoseconds()),
	}
}

// spanQuantiles digs the merged (µs) quantiles of one span kind out of a
// node snapshot.
func spanQuantiles(ns *telemetry.NodeSnapshot, span string) (p50, p99 float64, ok bool) {
	merged := ns.SpanTotal(span)
	if merged.Count() == 0 {
		return 0, 0, false
	}
	return merged.Quantile(0.50) / 1e3, merged.Quantile(0.99) / 1e3, true
}

func live(client *http.Client, endpoints []string, interval time.Duration, rounds int) {
	liveTo(client, endpoints, interval, rounds, os.Stdout)
}

func liveTo(client *http.Client, endpoints []string, interval time.Duration, rounds int, w io.Writer) {
	meters := make(map[string]*meterSet, len(endpoints))
	for _, ep := range endpoints {
		meters[ep] = newMeterSet(4 * interval)
	}
	for round := 0; rounds == 0 || round < rounds; round++ {
		if round > 0 {
			time.Sleep(interval)
		}
		tbl := stats.NewTable(
			fmt.Sprintf("madmon %s", time.Now().Format("15:04:05")),
			"node", "role", "delivered", "dlv/s", "frm/s", "backlog", "failq",
			"raildown", "qwait p50/p99 us", "e2e p50/p99 us",
		)
		for _, ep := range endpoints {
			var ns telemetry.NodeSnapshot
			if err := getJSON(client, "http://"+ep+"/metrics.json", &ns); err != nil {
				tbl.AddRow(ep, "-", "unreachable", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			now := time.Now().UnixNano()
			m := meters[ep]
			m.delivered.Observe(ns.Metrics.Delivered, now)
			m.frames.Observe(ns.Metrics.FramesPosted, now)
			var downs uint64
			for _, d := range ns.Metrics.RailDowns {
				downs += d
			}
			qw := "-"
			if p50, p99, ok := spanQuantiles(&ns, "queue_wait"); ok {
				qw = fmt.Sprintf("%.0f/%.0f", p50, p99)
			}
			e2e := "-"
			if p50, p99, ok := spanQuantiles(&ns, "e2e"); ok {
				e2e = fmt.Sprintf("%.0f/%.0f", p50, p99)
			}
			tbl.AddRow(
				fmt.Sprintf("%d", ns.Node), ns.Role,
				fmt.Sprintf("%d", ns.Metrics.Delivered),
				fmt.Sprintf("%.1f", m.delivered.PerSecond()),
				fmt.Sprintf("%.1f", m.frames.PerSecond()),
				fmt.Sprintf("%d", ns.Metrics.Backlog),
				fmt.Sprintf("%d", ns.Metrics.FailoverQueued),
				fmt.Sprintf("%d", downs),
				qw, e2e,
			)
		}
		fmt.Fprintln(w, tbl.String())
	}
}
