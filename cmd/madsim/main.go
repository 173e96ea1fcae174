// Command madsim runs an ad-hoc scenario through the optimizer: choose the
// strategy bundle, network profile, flow mix and tuning knobs from flags
// and read back the engine's metrics. It is the quickest way to poke at a
// "what if" without writing an experiment.
//
// Example:
//
//	madsim -profile mx -strategy aggregate -flows 8 -count 64 -size 128 \
//	       -nagle 8us -lookahead 16
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"newmad/internal/caps"
	"newmad/internal/exp"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/trace"
	"newmad/internal/workload"
)

// usage reports a bad flag value the way flag itself would: one line, exit
// status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "madsim: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	var (
		profile   = flag.String("profile", "mx", fmt.Sprint("capability profile, one of ", caps.Names()))
		bundle    = flag.String("strategy", "aggregate", "strategy bundle (see -strategies)")
		flows     = flag.Int("flows", 8, "number of concurrent flows")
		count     = flag.Int("count", 64, "messages per flow")
		size      = flag.Int("size", 128, "message size in bytes (0 = pareto mix)")
		nagle     = flag.Duration("nagle", 0, "artificial submission delay (e.g. 8us)")
		lookahead = flag.Int("lookahead", 0, "lookahead window (0 = unbounded)")
		budget    = flag.Int("budget", 0, "rearrangement search budget (search strategy)")
		channels  = flag.Int("channels", 1, "send channels per NIC (0 = profile default)")
		seed      = flag.Uint64("seed", 1, "workload seed")
		listStrat = flag.Bool("strategies", false, "list strategy bundles and exit")
		dump      = flag.Bool("dump", false, "dump the profile's capability record, every counter and histogram")
		doTrace   = flag.Bool("trace", false, "print the engine decision timeline (last 256 events)")
	)
	flag.Parse()

	if *listStrat {
		for _, n := range strategy.Names() {
			fmt.Println(n)
		}
		return
	}

	prof, ok := caps.Lookup(*profile)
	if !ok {
		usage("unknown profile %q (have %v)", *profile, caps.Names())
	}
	if _, err := strategy.New(*bundle); err != nil {
		usage("%v", err)
	}
	if *flows < 1 || *count < 1 || *size < 0 {
		usage("need -flows >= 1, -count >= 1 and -size >= 0 (got %d, %d, %d)", *flows, *count, *size)
	}
	knobs := strategy.Knobs{NagleDelay: simnet.FromWall(*nagle), Lookahead: *lookahead, SearchBudget: *budget}
	if err := knobs.Validate(); err != nil {
		usage("%v", err)
	}
	if *channels > 0 {
		prof.Channels = *channels
	}
	var rec *trace.Recorder
	if *doTrace {
		rec = trace.New(256)
	}
	var dist workload.SizeDist = workload.Fixed(*size)
	if *size == 0 {
		dist = workload.Pareto{Lo: 16, Hi: 64 << 10, Alpha: 1.2}
	}

	// The scenario is one experiment point: every flow runs 0 -> 1.
	m, rig, err := exp.RunPoint(exp.Point{
		RigOptions: exp.RigOptions{
			Profiles: []caps.Caps{prof},
			Bundle:   *bundle,
			Knobs:    knobs,
			Trace:    rec,
		},
		Flows: exp.Fan(*flows, workload.FlowSpec{
			Dst: 1, Class: packet.ClassSmall,
			Size:    dist,
			Arrival: workload.BackToBack{},
			Count:   *count,
		}),
	}, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madsim:", err)
		os.Exit(1)
	}

	total := *flows * *count
	st := rig.Cl.Stats
	fmt.Printf("scenario : %d flows × %d msgs of %s over %s, strategy %q\n",
		*flows, *count, dist, prof.Name, *bundle)
	fmt.Printf("delivered: %d/%d\n", m.Delivered, total)
	fmt.Printf("virtual  : %v  (wall %v)\n", m.End, m.Wall.Round(time.Microsecond))
	fmt.Printf("frames   : %d  (%.2f packets/frame)\n", m.Frames, m.PerFrame())
	fmt.Printf("latency  : mean %.1fµs  p50 %.1fµs  p99 %.1fµs\n", m.MeanLatUs, m.P50LatUs, m.P99LatUs)
	if m.End > 0 {
		secs := float64(m.End) / 1e9
		fmt.Printf("rate     : %.0f msg/s, %.1f MB/s payload\n",
			float64(total)/secs, float64(st.CounterValue("core.submitted_bytes"))/secs/1e6)
	}
	if *dump {
		fmt.Printf("\ncaps     : %s\n\n", prof)
		fmt.Print(st.Dump())
	}
	if rec != nil {
		fmt.Printf("\ndecision timeline (%d of %d events retained):\n", rec.Len(), rec.Total())
		fmt.Print(rec.Dump())
	}
}
