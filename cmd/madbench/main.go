// Command madbench regenerates the reproduction's tables: one experiment
// per claim of the paper (see the experiment catalog in DESIGN.md §4).
//
// Usage:
//
//	madbench               # run every experiment, full size
//	madbench -quick        # reduced workloads (seconds, not minutes)
//	madbench -run E1,E3    # a subset
//	madbench -chaos        # only the chaos battery (X5), faults from -seed
//	madbench -list         # list experiments and the claims they test
//	madbench -seed 7       # change the workload seed
//	madbench -json out.json  # also write machine-readable results
//	madbench -manifest testnet.json          # boot an emulated testnet instead
//	madbench -manifest testnet.json -seed 7  # ... overriding the manifest's seed
//	madbench -manifest testnet.json -trace out.trace  # ... dumping the chaos trace
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

// jsonReport is the schema of the -json output. Each schema is a strict
// superset of its predecessor, so committed snapshots keep comparing
// field-for-field: madbench/v2 added per-experiment controller decision
// counts (E11, X3) over v1, madbench/v3 added fault/recovery counters
// for the chaos experiments (X5) — how many faults were injected into each
// run and how many recovery actions (failovers, rendezvous retries) the
// engines fired in response — plus their fleet totals, madbench/v4
// adds per-experiment memory accounting (allocations, allocated bytes,
// and GC pause time attributable to one experiment run — the "op" of the
// *_per_op fields) so the zero-alloc datapath work stays observable in
// the same trajectory the wall-clock numbers live in, and madbench/v5
// adds per-experiment latency quantiles from the telemetry subsystem's
// span histograms (end-to-end and queue-wait, merged across every engine
// in the run) plus the report-level sample totals, and madbench/v6 adds
// per-tenant admission outcomes (offered/admitted/refused splits and
// per-tenant e2e p99) for the multi-tenant experiments (X6) plus the
// report-level refusal total — every v5 field is carried unchanged.
type jsonReport struct {
	Schema      string           `json:"schema"` // "madbench/v6"
	GeneratedAt time.Time        `json:"generated_at"`
	Quick       bool             `json:"quick"`
	Seed        uint64           `json:"seed"`
	Experiments []jsonExperiment `json:"experiments"`
	// ControllerDecisions totals the applied retunes across all selected
	// experiments (v2).
	ControllerDecisions uint64 `json:"controller_decisions"`
	// FaultsInjected/Recoveries total the chaos accounting across all
	// selected experiments (v3).
	FaultsInjected uint64 `json:"faults_injected"`
	Recoveries     uint64 `json:"recoveries"`
	// TotalAllocs/TotalAllocBytes/GCPauseTotalNs total the memory
	// accounting across all selected experiments (v4).
	TotalAllocs     uint64 `json:"total_allocs"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	GCPauseTotalNs  uint64 `json:"gc_pause_total_ns"`
	// LatencySamples totals the span observations behind every reported
	// quantile across all selected experiments (v5).
	LatencySamples uint64 `json:"latency_samples"`
	// TenantRefusals totals the admission-control refusals across all
	// selected experiments (v6).
	TenantRefusals uint64 `json:"tenant_refusals"`
}

// jsonTenant is one tenant's admission outcome in an experiment's final
// run (v6). Refusals are typed Submit errors — shed at the admission
// edge, never queued and never silently dropped.
type jsonTenant struct {
	Tenant   uint8   `json:"tenant"`
	Offered  uint64  `json:"offered"`
	Admitted uint64  `json:"admitted"`
	Refused  uint64  `json:"refused"`
	P99E2EUs float64 `json:"p99_e2e_us"`
}

// jsonQuantiles is one span kind's digest: sample count plus the µs
// quantiles (v5).
type jsonQuantiles struct {
	Count uint64  `json:"count"`
	P50Us float64 `json:"p50_us"`
	P95Us float64 `json:"p95_us"`
	P99Us float64 `json:"p99_us"`
}

// jsonLatency carries one experiment's latency digest: the end-to-end
// span (submit→in-order delivery; eager deliveries only — rendezvous
// payloads are reconstructed at the receiver without the submit stamp)
// and the queue-wait span (submit→first post attempt), merged across
// every engine in the run (v5).
type jsonLatency struct {
	E2E   jsonQuantiles `json:"e2e"`
	Qwait jsonQuantiles `json:"queue_wait"`
}

type jsonExperiment struct {
	ID     string         `json:"id"`
	Title  string         `json:"title"`
	Claim  string         `json:"claim"`
	WallMs float64        `json:"wall_ms"`
	Tables []*stats.Table `json:"tables"`
	// ControllerDecisions counts retunes the experiment's controllers
	// applied; omitted for controller-free experiments (v2).
	ControllerDecisions uint64 `json:"controller_decisions,omitempty"`
	// FaultsInjected/Recoveries count the faults that hit the run and the
	// recovery actions the engines fired; omitted for fault-free
	// experiments (v3).
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Recoveries     uint64 `json:"recoveries,omitempty"`
	// AllocsPerOp/BytesPerOp/GCPauseNs are runtime.MemStats deltas across
	// the experiment's Run — the op is one full experiment execution (v4).
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	GCPauseNs   uint64 `json:"gc_pause_ns"`
	// Latency is the experiment's final-run latency digest; omitted when
	// the experiment reported none (v5).
	Latency *jsonLatency `json:"latency,omitempty"`
	// Tenants is the experiment's per-tenant admission digest; omitted for
	// tenant-free experiments (v6).
	Tenants []jsonTenant `json:"tenants,omitempty"`
}

func main() {
	var (
		quick     = flag.Bool("quick", false, "run reduced workloads")
		run       = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		list      = flag.Bool("list", false, "list experiments and exit")
		seed      = flag.Uint64("seed", 1, "workload RNG seed")
		jsonPath  = flag.String("json", "", "write results as JSON to this file")
		chaosOnly = flag.Bool("chaos", false, "run only the chaos battery (X5): scripted faults from -seed, fault/recovery counters in the JSON")
		manifest  = flag.String("manifest", "", "boot the emulated testnet this manifest describes instead of the experiment catalog")
		tracePath = flag.String("trace", "", "with -manifest: write the executed chaos trace to this file")
	)
	flag.Parse()

	if *manifest != "" {
		if *run != "" || *chaosOnly {
			fmt.Fprintln(os.Stderr, "madbench: -manifest is mutually exclusive with -run/-chaos")
			os.Exit(2)
		}
		// -seed overrides the manifest's seed only when given explicitly, so
		// the manifest stays the single source of truth by default.
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		if err := runManifest(*manifest, *seed, seedSet, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	selected := exp.All()
	if *chaosOnly {
		if *run != "" {
			fmt.Fprintln(os.Stderr, "madbench: -chaos and -run are mutually exclusive")
			os.Exit(2)
		}
		*run = "X5"
	}
	if *run != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*run, ",") {
			e, ok := exp.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "madbench: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	cfg := exp.Config{Quick: *quick, Seed: *seed}
	report := jsonReport{
		Schema:      "madbench/v6",
		GeneratedAt: time.Now().UTC(),
		Quick:       *quick,
		Seed:        *seed,
	}
	for _, e := range selected {
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("    claim: %s\n\n", e.Claim)
		// Memory accounting (v4): a GC fence before the run keeps one
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
		var latency *jsonLatency
		if lat := rec.Latency; lat != nil {
			latency = &jsonLatency{
				E2E:   jsonQuantiles{Count: lat.E2ECount, P50Us: lat.E2EP50Us, P95Us: lat.E2EP95Us, P99Us: lat.E2EP99Us},
				Qwait: jsonQuantiles{Count: lat.QwaitCount, P50Us: lat.QwaitP50Us, P95Us: lat.QwaitP95Us, P99Us: lat.QwaitP99Us},
			}
			report.LatencySamples += lat.E2ECount + lat.QwaitCount
		}
		var tenants []jsonTenant
		for _, ts := range rec.Tenants {
			tenants = append(tenants, jsonTenant{
				Tenant: ts.Tenant, Offered: ts.Offered, Admitted: ts.Admitted,
				Refused: ts.Refused, P99E2EUs: ts.P99E2EUs,
			})
			report.TenantRefusals += ts.Refused
		}
		report.ControllerDecisions += rec.Decisions
		report.FaultsInjected += rec.FaultsInjected
		report.Recoveries += rec.Recoveries
		report.TotalAllocs += allocs
		report.TotalAllocBytes += bytes
		report.GCPauseTotalNs += gcPause
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: e.ID, Title: e.Title, Claim: e.Claim,
			WallMs:              float64(wall.Microseconds()) / 1e3,
			Tables:              tables,
			ControllerDecisions: rec.Decisions,
			FaultsInjected:      rec.FaultsInjected,
			Recoveries:          rec.Recoveries,
			AllocsPerOp:         allocs,
			BytesPerOp:          bytes,
			GCPauseNs:           gcPause,
			Latency:             latency,
			Tenants:             tenants,
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
