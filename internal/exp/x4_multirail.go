package exp

import (
	"fmt"
	"strings"
	"time"

	"newmad/internal/caps"
	"newmad/internal/cluster"
	"newmad/internal/stats"
)

// X4 — multi-rail addendum (not a claim of the paper; added with the
// multi-rail TCP mesh transport).
//
// E4 shows the scheduler's dynamic load balancing "on multiple NICs, or
// even NICs from multiple technologies" on simulated fabrics. X4 runs the
// same idea over real sockets: every node carries N independent TCP rails
// per peer (one connection each, one capability record each), and the
// capability-aware rail scheduler (strategy.ScheduledRail) stripes granted
// rendezvous transfers across the rails while steering small eager
// aggregates to the low-latency rail. The rails enforce their capability
// record's bandwidth class on the wall clock (caps.EmulateWire), so each
// TCP rail faithfully stands in for one GigE-class NIC regardless of host
// core count or loopback speed. The workload is a conglomerate —
// concurrent small-message streams and large rendezvous transfers in both
// directions — and the measured quantity is wall-clock completion: the
// deliverable bandwidth of a multi-rail node is the sum of its rails, but
// only if the scheduler actually keeps every rail busy. A single rail
// bounds throughput at one wire; striping across N rails multiplies it,
// which is exactly what the table shows (and what would fail to show if
// striping pinned traffic to one rail).

// X4Result is one transport configuration's outcome for the shared
// conglomerate workload.
type X4Result struct {
	RailCount int
	Msgs      int
	Bytes     int
	// Completion is wall-clock time from first submit to last delivery.
	Completion time.Duration
	// RailFrames counts frames posted per rail profile, summed over nodes —
	// the striping evidence.
	RailFrames map[string]uint64
}

// Goodput returns application bytes per second over the run.
func (r X4Result) Goodput() float64 {
	s := r.Completion.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / s
}

func x4Shape(cfg Config) (w cluster.Conglomerate, railCounts []int) {
	if cfg.Quick {
		return cluster.Conglomerate{SmallMsgs: 200, SmallSize: 256, BulkMsgs: 16, BulkSize: 1 << 20}, []int{1, 2}
	}
	return cluster.Conglomerate{SmallMsgs: 600, SmallSize: 256, BulkMsgs: 32, BulkSize: 2 << 20}, []int{1, 2, 4}
}

// x4Rails derives the transport profiles: GigE-class TCP rails that enforce
// their bandwidth on the wall clock. 60 MB/s per rail keeps even the
// 4-rail, both-directions aggregate (480 MB/s) under what one host core
// can move through loopback sockets, so the comparison measures the rail
// scheduler, not the machine.
func x4Rails(n int) []caps.Caps {
	base := caps.TCP
	base.Name = "gige"
	base.Bandwidth = 60e6
	base.EmulateWire = true
	return caps.RailProfiles(base, n)
}

// X4Mesh runs the conglomerate workload between two nodes connected by
// railCount real TCP rails and reports wall-clock completion.
func X4Mesh(cfg Config, railCount int) (X4Result, error) {
	w, _ := x4Shape(cfg)
	opts := cluster.Options{Nodes: 2, Rails: x4Rails(railCount)}
	c, err := newMeshRig(opts)
	if err != nil {
		return X4Result{}, err
	}
	defer c.Close()

	start := time.Now()
	if err := w.Start(c.Cluster)(); err != nil {
		return X4Result{}, err
	}
	if err := c.wait(w.Msgs(), 120*time.Second); err != nil {
		return X4Result{}, fmt.Errorf("X4 on %d rails: %w", railCount, err)
	}
	res := X4Result{
		RailCount:  railCount,
		Msgs:       w.Msgs(),
		Bytes:      w.Bytes(),
		Completion: time.Since(start),
		RailFrames: make(map[string]uint64),
	}
	for _, p := range opts.Rails {
		res.RailFrames[p.Name] = c.counter("core.rail." + p.Name + ".frames")
	}
	return res, nil
}

func runX4(cfg Config) []*stats.Table {
	_, railCounts := x4Shape(cfg)
	t := stats.NewTable(
		"X4 — conglomerate workload (small streams + rendezvous bulks, both directions) over N real TCP rails",
		"rails", "msgs", "MB", "time(ms)", "goodput(MB/s)", "speedup vs 1 rail", "frames per rail")
	t.Caption = "each rail is an independent TCP connection per peer enforcing its capability record's 60 MB/s bandwidth class; bulk transfers stripe across rails, small aggregates stay on the low-latency rail"
	var base X4Result
	for i, rc := range railCounts {
		r := must(X4Mesh(cfg, rc))
		if i == 0 {
			base = r
		}
		var dist []string
		for _, p := range x4Rails(rc) {
			dist = append(dist, fmt.Sprintf("%d", r.RailFrames[p.Name]))
		}
		t.AddRowf(r.RailCount, r.Msgs, float64(r.Bytes)/1e6, r.Completion.Seconds()*1e3, r.Goodput()/1e6,
			fmt.Sprintf("%.2fx", float64(base.Completion)/float64(r.Completion)),
			strings.Join(dist, " "))
	}
	return []*stats.Table{t}
}
