// Command madbench regenerates the reproduction's tables: one experiment
// per claim of the paper (see the experiment catalog in DESIGN.md §4).
//
// Usage:
//
//	madbench               # run every experiment, full size
//	madbench -quick        # reduced workloads (seconds, not minutes)
//	madbench -run E1,E3    # a subset
//	madbench -list         # list experiments and the claims they test
//	madbench -seed 7       # change the workload seed
//	madbench -json out.json  # also write machine-readable results
//	madbench -manifest testnet.json          # boot an emulated testnet instead
//	madbench -manifest testnet.json -seed 7  # ... overriding the manifest's seed
//	madbench -manifest testnet.json -trace out.trace  # ... dumping the chaos trace
//
// A flag the selected mode would ignore exits 2 instead of being dropped:
// -json, -quick, -list and -run refuse -manifest, and -trace requires it.
//
// The -json file records every table of every selected experiment plus the
// wall-clock cost of producing it. The repository's performance record is
// the benchmark in bench/ (BENCHMARK.json), not these tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"newmad/internal/exp"
	"newmad/internal/stats"
)

// fmtBytes renders a byte count with a binary unit for the console line.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// usage reports a bad flag combination the way flag itself would: one line,
// exit status 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "madbench: "+format+"\n", args...)
	os.Exit(2)
}

// jsonReport is the schema of the -json output, "madbench/v7": every table
// of every selected experiment, what producing it cost (wall clock,
// allocations, GC pause), what the run recorded beside its tables
// (exp.Report: controller decisions, latency-span quantiles, per-tenant
// admission outcomes), and the totals of those across the selection.
type jsonReport struct {
	Schema      string           `json:"schema"`
	GeneratedAt time.Time        `json:"generated_at"`
	Quick       bool             `json:"quick"`
	Seed        uint64           `json:"seed"`
	Experiments []jsonExperiment `json:"experiments"`
	// ControllerDecisions totals the applied retunes (E11).
	ControllerDecisions uint64 `json:"controller_decisions"`
	// TotalAllocs/TotalAllocBytes/GCPauseTotalNs total the memory accounting.
	TotalAllocs     uint64 `json:"total_allocs"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns"`
	// LatencySamples totals the span observations behind every reported
	// quantile.
	LatencySamples uint64 `json:"latency_samples"`
	// TenantRefusals totals the admission-control refusals (X6).
	TenantRefusals uint64 `json:"tenant_refusals"`
}

type jsonExperiment struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Claim  string         `json:"claim"`
	WallMs float64        `json:"wall_ms"`
	Tables []*stats.Table `json:"tables"`
	// AllocsPerOp/BytesPerOp/GCPauseNs are runtime.MemStats deltas across
	// the experiment's Run — the op is one full experiment execution.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	GCPauseNs   uint64 `json:"gc_pause_ns"`
	// Report is what the run recorded beside its tables; each part is
	// omitted for experiments that have none (exp.Report carries the keys).
	exp.Report
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "run reduced workloads")
		run       = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Uint64("seed", 1, "workload RNG seed")
		jsonPath  = flag.String("json", "", "write results as JSON to this file")
		manifest  = flag.String("manifest", "", "boot the emulated testnet this manifest describes instead of the experiment catalog")
		tracePath = flag.String("trace", "", "with -manifest: write the executed chaos trace to this file")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *manifest != "" {
		for _, name := range []string{"json", "quick", "list", "run"} {
			if set[name] {
				usage("-manifest is mutually exclusive with -%s", name)
			}
		}
		// -seed overrides the manifest's seed only when given explicitly, so
		// the manifest stays the single source of truth by default.
		if err := runManifest(*manifest, *seed, set["seed"], *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if set["trace"] {
		usage("-trace needs -manifest")
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	selected := exp.All()
	if *run != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*run, ",") {
			e, ok := exp.Get(strings.TrimSpace(id))
			if !ok {
				usage("unknown experiment %q", id)
			}
			selected = append(selected, e)
		}
	}

	cfg := exp.Config{Quick: *quick, Seed: *seed}
	report := jsonReport{
		Schema:      "madbench/v7",
		GeneratedAt: time.Now().UTC(),
		Quick:       *quick,
		Seed:        *seed,
	}
	for _, e := range selected {
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n\n", e.Claim)
		// Memory accounting: a GC fence before the run keeps one
		// experiment's garbage from billing the next; deltas across Run
		// attribute allocations and GC pauses to this experiment.
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		tables := e.Run(cfg)
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		for _, t := range tables {
			fmt.Println(t.String())
		}
		allocs := m1.Mallocs - m0.Mallocs
		bytes := m1.TotalAlloc - m0.TotalAlloc
		gcPause := m1.PauseTotalNs - m0.PauseTotalNs
		fmt.Printf("    (%s in %v; %d allocs, %s allocated, %v GC pause)\n\n",
			e.ID, wall.Round(time.Millisecond), allocs, fmtBytes(bytes), time.Duration(gcPause).Round(time.Microsecond))
		rec := exp.ReportOf(e.ID)
		if lat := rec.Latency; lat != nil {
			report.LatencySamples += lat.E2ECount + lat.QwaitCount
		}
		for _, ts := range rec.Tenants {
			report.TenantRefusals += ts.Refused
		}
		report.ControllerDecisions += rec.Decisions
		report.TotalAllocs += allocs
		report.TotalAllocBytes += bytes
		report.GCPauseTotalNs += gcPause
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: e.ID, Title: e.Title, Claim: e.Claim,
			WallMs:      float64(wall.Microseconds()) / 1e3,
			Tables:      tables,
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
			GCPauseNs:   gcPause,
			Report:      rec,
		})
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "madbench: encoding results: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d experiment result(s) to %s\n", len(report.Experiments), *jsonPath)
	}
}
