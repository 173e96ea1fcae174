package exp

import (
	"fmt"

	"newmad/internal/packet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E8 — §1: communication libraries select among "eager, rendezvous and
// remote memory access protocols" per message. The classic Madeleine-style
// latency/bandwidth curves: one flow, message size swept from 8 B to
// 1 MiB, under three protocol policies — the capability-driven threshold,
// eager-always, and rendezvous-always. Eager wins below the threshold
// (no RTS/CTS round trip), rendezvous wins above it (no staging copies,
// flow-controlled receiver); the crossover is the driver's threshold.

func e8Shape(cfg Config) (count int, sizes []int) {
	if cfg.Quick {
		return 4, []int{64, 16 << 10, 256 << 10}
	}
	return 12, []int{8, 64, 512, 4 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10, 1 << 20}
}

func e8Point(policy strategy.ProtocolPolicy, size int, cfg Config) (m Metrics, count int) {
	count, _ = e8Shape(cfg)
	class := packet.ClassSmall
	if size >= 8<<10 {
		class = packet.ClassBulk
	}
	m, _ = run(Point{
		RigOptions: RigOptions{ID: "E8"},
		Protocol:   policy,
		Flows: []workload.FlowSpec{{
			Flow: 1, Dst: 1, Class: class,
			Size: workload.Fixed(size), Arrival: workload.BackToBack{},
			Count: count,
		}},
	}, cfg)
	return m, count
}

func runE8(cfg Config) []*stats.Table {
	_, sizes := e8Shape(cfg)
	policies := []strategy.ProtocolPolicy{
		strategy.ThresholdProtocol{}, strategy.EagerAlways{}, strategy.ThresholdProtocol{Override: 1},
	}
	header := []string{"size", "threshold(32K)", "eager-always", "rndv-always"}
	bwT := stats.NewTable("E8 — achieved bandwidth by protocol policy (MX, MB/s)", header...)
	bwT.Caption = "bandwidth = payload delivered / completion time; crossover sits at the driver threshold"
	latT := stats.NewTable("E8 — per-message time by protocol policy (MX, µs)", header...)
	for _, size := range sizes {
		bwRow := []any{sizeLabel(size)}
		latRow := []any{sizeLabel(size)}
		for _, p := range policies {
			m, count := e8Point(p, size, cfg)
			bwRow = append(bwRow, float64(size*count)/(float64(m.End)/1e9)/1e6)
			latRow = append(latRow, float64(m.End)/float64(count)/1000)
		}
		bwT.AddRowf(bwRow...)
		latT.AddRowf(latRow...)
	}
	return []*stats.Table{bwT, latT}
}

// E8Time returns per-message completion time under a policy (test oracle).
func E8Time(policy strategy.ProtocolPolicy, size int, cfg Config) float64 {
	m, count := e8Point(policy, size, cfg)
	return float64(m.End) / float64(count)
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
