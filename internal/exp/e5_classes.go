package exp

import (
	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E5 — §2: the scheduler "may assign some of these resources to different
// classes of traffic (assigning different channel[s] to large synchronous
// sends, put/get transfers and control/signalling messages)".
//
// Workload: a continuous stream of bulk sends saturates the node while
// latency-critical control pings run concurrently. With a single shared
// queue the pings serialize behind multi-kilobyte frames; with a reserved
// control lane (or the adaptive partitioner) they keep their microsecond
// latency.

func e5Shape(cfg Config) (pings, bulks int) {
	if cfg.Quick {
		return 30, 20
	}
	return 100, 60
}

// classPoint is the bulk+control mix E5 and E10 share: id's rig on MX with
// the given channel count, the class policy installed over it, and flows
// whose control pings are express.
func classPoint(id string, channels int, classes strategy.ClassPolicy, flows []workload.FlowSpec, cfg Config) Metrics {
	prof := caps.MX
	prof.Channels = channels
	m, _ := run(Point{
		RigOptions: RigOptions{ID: id, Profiles: []caps.Caps{prof}},
		Classes:    classes,
		Flows:      flows,
	}, cfg)
	return m
}

// bulk16K is a 16 KiB eager flow (below the rendezvous threshold, so each
// frame holds its channel); ping is a 16 B express control flow.
func bulk16K(flow packet.FlowID, arrival workload.Arrival, count int, start simnet.Duration) workload.FlowSpec {
	return workload.FlowSpec{Flow: flow, Dst: 1, Class: packet.ClassBulk,
		Size: workload.Fixed(16 << 10), Arrival: arrival, Count: count, Start: start}
}

func ping(flow packet.FlowID, mean simnet.Duration, count int, start simnet.Duration) workload.FlowSpec {
	return workload.FlowSpec{Flow: flow, Dst: 1, Class: packet.ClassControl, Recv: packet.RecvExpress,
		Size: workload.Fixed(16), Arrival: workload.Poisson{Mean: mean}, Count: count, Start: start}
}

// e5Point runs bulk+control under a class policy on two channels: enough
// for one reserved control lane plus a bulk lane. Metrics carry the
// control-ping latency distribution.
func e5Point(classes strategy.ClassPolicy, cfg Config) Metrics {
	pings, bulks := e5Shape(cfg)
	return classPoint("E5", 2, classes, []workload.FlowSpec{
		bulk16K(1, workload.BackToBack{}, bulks, 0),
		ping(2, 20*simnet.Microsecond, pings, 0),
	}, cfg)
}

// classCase names one class policy in E5's and E10's tables.
type classCase struct {
	name   string
	policy strategy.ClassPolicy
}

// classTable fills t with one row per class policy: control latency,
// completion and frames.
func classTable(t *stats.Table, point func(strategy.ClassPolicy, Config) Metrics, cfg Config, cases ...classCase) []*stats.Table {
	for _, c := range cases {
		m := point(c.policy, cfg)
		t.AddRowf(c.name, m.CtrlP50Us, m.CtrlP99Us, m.EndUs(), m.Frames)
	}
	return []*stats.Table{t}
}

func runE5(cfg Config) []*stats.Table {
	t := stats.NewTable("E5 — control latency under bulk load (MX, 2 channels)",
		"class policy", "ctrl p50(µs)", "ctrl p99(µs)", "time(µs)", "frames")
	t.Caption = "single = one shared queue; reserved = channel 0 dedicated to control"
	return classTable(t, e5Point, cfg,
		classCase{"single", strategy.SingleQueue{}},
		classCase{"reserved", strategy.ReservedControl{}},
		classCase{"adaptive", strategy.NewAdaptiveClasses(64)})
}

// E5ControlP99 exposes the p99 control latency for the shape tests.
func E5ControlP99(policy strategy.ClassPolicy, cfg Config) float64 {
	return e5Point(policy, cfg).CtrlP99Us
}
