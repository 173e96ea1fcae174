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
	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/trace"
	"newmad/internal/workload"
)

func main() {
	var (
		profile   = flag.String("profile", "mx", "capability profile (see madcaps)")
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
		dump      = flag.Bool("dump", false, "dump every counter and histogram")
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
		fmt.Fprintf(os.Stderr, "madsim: unknown profile %q (have %v)\n", *profile, caps.Names())
		os.Exit(2)
	}
	if *channels > 0 {
		prof.Channels = *channels
	}
	cl, err := drivers.NewCluster(2, prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "madsim:", err)
		os.Exit(1)
	}
	engines := map[packet.NodeID]*core.Engine{}
	delivered := 0
	var rec *trace.Recorder
	if *doTrace {
		rec = trace.New(256)
	}
	for n := packet.NodeID(0); n < 2; n++ {
		b, err := strategy.New(*bundle)
		if err != nil {
			fmt.Fprintln(os.Stderr, "madsim:", err)
			os.Exit(2)
		}
		eng, err := core.New(n, core.Options{
			Bundle:       b,
			Runtime:      cl.Eng,
			Rails:        []drivers.Driver{cl.Driver(n, prof.Name)},
			Deliver:      func(proto.Deliverable) { delivered++ },
			NagleDelay:   simnet.FromWall(*nagle),
			Lookahead:    *lookahead,
			SearchBudget: *budget,
			Stats:        cl.Stats,
			Trace:        rec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "madsim:", err)
			os.Exit(1)
		}
		engines[n] = eng
	}

	var dist workload.SizeDist = workload.Fixed(*size)
	if *size == 0 {
		dist = workload.Pareto{Lo: 16, Hi: 64 << 10, Alpha: 1.2}
	}
	wl := workload.NewDriver(cl.Eng, engines, *seed)
	for f := 0; f < *flows; f++ {
		wl.Add(workload.FlowSpec{
			Flow: packet.FlowID(f + 1), Src: 0, Dst: 1,
			Class:   packet.ClassSmall,
			Size:    dist,
			Arrival: workload.BackToBack{},
			Count:   *count,
		})
	}

	start := time.Now()
	end := cl.Eng.Run()
	wall := time.Since(start)

	total := *flows * *count
	fmt.Printf("scenario : %d flows × %d msgs of %s over %s, strategy %q\n",
		*flows, *count, dist, prof.Name, *bundle)
	fmt.Printf("delivered: %d/%d\n", delivered, total)
	fmt.Printf("virtual  : %v  (wall %v)\n", end, wall.Round(time.Microsecond))
	fmt.Printf("frames   : %d  (%.2f packets/frame)\n",
		cl.Stats.CounterValue("nic.tx.frames"),
		float64(total)/float64(cl.Stats.CounterValue("nic.tx.frames")))
	lat := engines[1].Spans().Total(int(core.SpanE2E)) // every flow runs 0 -> 1
	fmt.Printf("latency  : mean %.1fµs  p50 %.1fµs  p99 %.1fµs\n",
		lat.Mean()/1000, lat.Quantile(0.5)/1000, lat.Quantile(0.99)/1000)
	if end > 0 {
		fmt.Printf("rate     : %.0f msg/s, %.1f MB/s payload\n",
			float64(total)/(float64(end)/1e9),
			float64(cl.Stats.CounterValue("core.submitted_bytes"))/(float64(end)/1e9)/1e6)
	}
	if *dump {
		fmt.Println()
		fmt.Print(cl.Stats.Dump())
	}
	if rec != nil {
		fmt.Printf("\ndecision timeline (%d of %d events retained):\n", rec.Len(), rec.Total())
		fmt.Print(rec.Dump())
	}
}
