package exp

import (
	"newmad/internal/simnet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E10 — §2: "the scheduler may also choose to dynamically change the
// assignment of networking resources to traffic classes, thus selecting
// different policies, as the needs of the application evolve during the
// execution."
//
// A two-phase application: a bulk-dominated phase, then a control-
// dominated phase. A static partition tuned for either phase wastes
// channels during the other; the adaptive policy re-partitions as the
// observed mix shifts. Reported: control latency and completion per
// (phase, policy).

func e10Shape(cfg Config) (bulks, pings int) {
	if cfg.Quick {
		return 12, 40
	}
	return 40, 120
}

func e10Point(classes strategy.ClassPolicy, cfg Config) Metrics {
	bulks, pings := e10Shape(cfg)
	// Phase B starts after the bulk phase drains.
	const phaseB = 4 * simnet.Millisecond
	// Phase A (bulk-heavy, t=0): bulks × 16 KiB on four flows, plus sparse
	// pings that suffer if classes share channels.
	flows := Fan(4, bulk16K(0, workload.BackToBack{}, bulks, 0))
	flows = append(flows,
		ping(5, 50*simnet.Microsecond, pings/2, 0),
		// Phase B (control-heavy): a dense ping stream with a trickle of
		// bulk. A static partition sized for phase A wastes channels here;
		// the adaptive policy re-partitions.
		ping(6, 5*simnet.Microsecond, pings/2, phaseB),
		bulk16K(7, workload.Poisson{Mean: 200 * simnet.Microsecond}, bulks/4, phaseB),
	)
	return classPoint("E10", 4, classes, flows, cfg) // MX's full 4 channels
}

func runE10(cfg Config) []*stats.Table {
	t := stats.NewTable("E10 — static vs adaptive class partitioning across phases (MX, 4 channels)",
		"class policy", "ctrl p50(µs)", "ctrl p99(µs)", "time(µs)", "frames")
	t.Caption = "bulk-heavy phase then control-heavy phase; adaptive re-partitions between them"
	return classTable(t, e10Point, cfg,
		classCase{"single-queue", strategy.SingleQueue{}},
		classCase{"static-reserved", strategy.ReservedControl{}},
		classCase{"adaptive", strategy.NewAdaptiveClasses(32)})
}

// E10CtrlP99 exposes control tail latency per policy for the shape test.
func E10CtrlP99(policy strategy.ClassPolicy, cfg Config) float64 {
	return e10Point(policy, cfg).CtrlP99Us
}
