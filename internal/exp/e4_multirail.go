package exp

import (
	"fmt"
	"sort"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/stats"
	"newmad/internal/strategy"
	"newmad/internal/workload"
)

// E4 — §2: the scheduler "may also perform dynamic load balancing on
// multiple resources, multiple NICs, or even NICs from multiple
// technologies."
//
// The plan builder is held fixed (aggregate); only the rail policy varies:
// pinned (the one-to-one flow mapping the paper demotes to a fallback
// policy) versus shared (the pooled scheduler). The workload is
// deliberately unbalanced — odd flows carry 16× the bytes of even flows —
// so a static flow-to-rail mapping strands the heavy flows on one rail
// while the other idles. The shared pool lets whichever NIC goes idle pull
// the next eligible work.

func e4Shape(cfg Config) (flows, perFlow int) {
	if cfg.Quick {
		return 4, 12
	}
	return 8, 32
}

// e4Rails returns E4's three rail sets; mx2 is a second Myrinet rail
// (identical silicon, distinct fabric).
func e4Rails() (mxOnly, dualMX, hetero []caps.Caps) {
	mx, mx2 := SingleChannel(caps.MX), SingleChannel(caps.MX)
	mx2.Name = "mx2"
	return []caps.Caps{mx}, []caps.Caps{mx, mx2}, []caps.Caps{mx, SingleChannel(caps.Elan)}
}

func e4Point(rail strategy.RailPolicy, profiles []caps.Caps, cfg Config) (Metrics, *Rig) {
	flows, perFlow := e4Shape(cfg)
	specs := Fan(flows, workload.FlowSpec{
		Dst: 1, Class: packet.ClassSmall,
		Size:    workload.Fixed(256),
		Arrival: workload.BackToBack{},
		Count:   perFlow,
	})
	for f := 1; f < flows; f += 2 {
		specs[f].Size = workload.Fixed(4096) // heavy flows; pinned maps them all to one rail
	}
	return run(Point{RigOptions: RigOptions{ID: "E4", Profiles: profiles}, Rail: rail, Flows: specs}, cfg)
}

func runE4(cfg Config) []*stats.Table {
	mxOnly, dualMX, hetero := e4Rails()
	t := stats.NewTable("E4 — multi-rail load balancing (unbalanced flows, 256 B / 4 KiB)",
		"rails", "policy", "time(µs)", "frames:rail0", "frames:rail1", "speedup vs 1 rail")
	t.Caption = "pinned = static one-to-one flow mapping (paper's fallback); shared = pooled rails"

	base, _ := e4Point(strategy.SharedRail{}, mxOnly, cfg)
	add := func(label, policy string, rail strategy.RailPolicy, profiles []caps.Caps) {
		m, rig := e4Point(rail, profiles, cfg)
		// NodeDrivers sorts rails by name; report in sorted order too.
		names := []string{profiles[0].Name}
		if len(profiles) > 1 {
			names = append(names, profiles[1].Name)
			sort.Strings(names)
		}
		frames := []string{"-", "-"}
		for i, name := range names {
			frames[i] = fmt.Sprintf("%d", rig.Cl.Stats.CounterValue("core.rail."+name+".frames"))
		}
		t.AddRowf(label, policy, m.EndUs(), frames[0], frames[1],
			fmt.Sprintf("%.2fx", float64(base.End)/float64(m.End)))
	}
	add("1×MX", "shared", strategy.SharedRail{}, mxOnly)
	add("2×MX", "pinned", strategy.PinnedRail{}, dualMX)
	add("2×MX", "shared", strategy.SharedRail{}, dualMX)
	add("MX+Elan", "pinned", strategy.PinnedRail{}, hetero)
	add("MX+Elan", "shared", strategy.SharedRail{}, hetero)
	add("MX+Elan", "affinity", &strategy.AffinityRail{Rails: []caps.Caps{hetero[1], hetero[0]}}, hetero)
	return []*stats.Table{t}
}

// E4Times exposes (single-rail, dual-pinned, dual-shared) completion times
// for the shape test.
func E4Times(cfg Config) (single, pinned, shared float64) {
	mxOnly, dualMX, _ := e4Rails()
	a, _ := e4Point(strategy.SharedRail{}, mxOnly, cfg)
	b, _ := e4Point(strategy.PinnedRail{}, dualMX, cfg)
	c, _ := e4Point(strategy.SharedRail{}, dualMX, cfg)
	return float64(a.End), float64(b.End), float64(c.End)
}
