// Benchmark harness: one testing.B benchmark per experiment in the
// reproduction plan (DESIGN.md §4). Each benchmark re-runs its experiment
// workload and reports the *virtual-time* metrics the paper's evaluation
// would quote (completion time, frames, latency) via b.ReportMetric, while
// the wall-clock ns/op measures the host cost of the optimizer itself.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate the full tables instead with: go run ./cmd/madbench
package main

import (
	"testing"

	"newmad/internal/caps"
	"newmad/internal/exp"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

var benchCfg = exp.Config{Quick: true, Seed: 1}

// BenchmarkE1CrossFlowAggregation — §4's headline claim: the speedup of
// cross-flow eager aggregation over the previous Madeleine at 8 flows.
func BenchmarkE1CrossFlowAggregation(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = exp.E1Speedup(8, benchCfg)
	}
	b.ReportMetric(speedup, "speedup_vs_fifo")
}

// BenchmarkE2LookaheadWindow — frames emitted at lookahead 4 versus
// unbounded (future work §4: window sizing).
func BenchmarkE2LookaheadWindow(b *testing.B) {
	var narrow, wide uint64
	for i := 0; i < b.N; i++ {
		narrow = exp.E2Frames(4, benchCfg)
		wide = exp.E2Frames(0, benchCfg)
	}
	b.ReportMetric(float64(narrow), "frames_window4")
	b.ReportMetric(float64(wide), "frames_unbounded")
}

// BenchmarkE3NagleDelay — the latency/transaction trade-off of the
// artificial delay (§3).
func BenchmarkE3NagleDelay(b *testing.B) {
	var m exp.Metrics
	for i := 0; i < b.N; i++ {
		m = exp.E3Point(16*simnet.Microsecond, benchCfg)
	}
	b.ReportMetric(float64(m.Frames), "frames")
	b.ReportMetric(m.MeanLatUs, "mean_latency_us")
}

// BenchmarkE4MultiRail — pooled rails versus pinned one-to-one mapping
// (§2 load balancing).
func BenchmarkE4MultiRail(b *testing.B) {
	var single, pinned, shared float64
	for i := 0; i < b.N; i++ {
		single, pinned, shared = exp.E4Times(benchCfg)
	}
	b.ReportMetric(single/shared, "speedup_shared_vs_1rail")
	b.ReportMetric(pinned/shared, "speedup_shared_vs_pinned")
}

// BenchmarkE5TrafficClasses — control tail latency with and without a
// reserved control lane (§2 traffic classes).
func BenchmarkE5TrafficClasses(b *testing.B) {
	var single, reserved float64
	for i := 0; i < b.N; i++ {
		single = exp.E5ControlP99(strategy.SingleQueue{}, benchCfg)
		reserved = exp.E5ControlP99(strategy.ReservedControl{}, benchCfg)
	}
	b.ReportMetric(single, "ctrl_p99_us_single")
	b.ReportMetric(reserved, "ctrl_p99_us_reserved")
}

// BenchmarkE6SearchBudget — plan quality at small versus large
// rearrangement budgets (future work §4: bounding the search); ns/op
// captures the optimizer's host cost as the budget grows.
func BenchmarkE6SearchBudget(b *testing.B) {
	for _, budget := range []int{1, 8, 64} {
		budget := budget
		b.Run(benchName("budget", budget), func(b *testing.B) {
			var q float64
			for i := 0; i < b.N; i++ {
				q = exp.E6Quality(budget, benchCfg)
			}
			b.ReportMetric(q/1000, "virtual_completion_us")
		})
	}
}

// BenchmarkE7CapabilityParam — aggregation depth per capability profile
// (§1: decisions parameterized by driver capabilities).
func BenchmarkE7CapabilityParam(b *testing.B) {
	var mx, elan, ib float64
	for i := 0; i < b.N; i++ {
		mx = exp.E7PacketsPerFrame(caps.MX, benchCfg)
		elan = exp.E7PacketsPerFrame(caps.Elan, benchCfg)
		ib = exp.E7PacketsPerFrame(caps.IB, benchCfg)
	}
	b.ReportMetric(mx, "pkts_per_frame_mx")
	b.ReportMetric(elan, "pkts_per_frame_elan")
	b.ReportMetric(ib, "pkts_per_frame_ib")
}

// BenchmarkE8ProtocolSwitch — eager versus rendezvous at both ends of the
// size axis (§1 protocol selection).
func BenchmarkE8ProtocolSwitch(b *testing.B) {
	var eSmall, rSmall, eBig, rBig float64
	for i := 0; i < b.N; i++ {
		eSmall = exp.E8Time(strategy.EagerAlways{}, 64, benchCfg)
		rSmall = exp.E8Time(strategy.ThresholdProtocol{Override: 1}, 64, benchCfg)
		eBig = exp.E8Time(strategy.EagerAlways{}, 1<<20, benchCfg)
		rBig = exp.E8Time(strategy.ThresholdProtocol{}, 1<<20, benchCfg)
	}
	b.ReportMetric(rSmall/eSmall, "small_rndv_over_eager")
	b.ReportMetric(eBig/rBig, "big_eager_over_rndv")
}

// BenchmarkE9Conglomerate — the MPI+RPC+DSM middleware stack under both
// engines (§1–2 conglomerate motivation).
func BenchmarkE9Conglomerate(b *testing.B) {
	var fifo, agg float64
	for i := 0; i < b.N; i++ {
		fifo, agg = exp.E9Times(benchCfg)
	}
	b.ReportMetric(fifo/agg, "speedup_vs_fifo")
}

// BenchmarkE10DynamicPolicy — adaptive class re-partitioning versus a
// single queue across application phases (§2 dynamic policy change).
func BenchmarkE10DynamicPolicy(b *testing.B) {
	var single, adaptive float64
	for i := 0; i < b.N; i++ {
		single = exp.E10CtrlP99(strategy.SingleQueue{}, benchCfg)
		adaptive = exp.E10CtrlP99(strategy.NewAdaptiveClasses(32), benchCfg)
	}
	b.ReportMetric(single, "ctrl_p99_us_single")
	b.ReportMetric(adaptive, "ctrl_p99_us_adaptive")
}

// BenchmarkE11AdaptiveController — the closed loop against the phase-
// alternating workload: end-to-end virtual completion, adaptive versus the
// best static tuning.
func BenchmarkE11AdaptiveController(b *testing.B) {
	var adaptive, bestStatic float64
	for i := 0; i < b.N; i++ {
		results, err := exp.E11All(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		bestStatic = 0
		for _, r := range results {
			us := float64(r.Total) / 1e3
			if r.Name == "adaptive" {
				adaptive = us
			} else if bestStatic == 0 || us < bestStatic {
				bestStatic = us
			}
		}
	}
	b.ReportMetric(adaptive, "total_us_adaptive")
	b.ReportMetric(bestStatic, "total_us_best_static")
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
