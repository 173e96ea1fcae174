// Command bench is the repository's benchmark: four fixed workloads over the
// full Figure-1 stack on real loopback TCP, every timed end-to-end metric a
// ratio to a bare-socket reference measured in interleaved segments, and an
// outside-in ledger of what each layer costs. See README.md beside it.
//
//	go run ./bench                      every workload, end to end and per layer
//	go run ./bench -selfcheck           the end-to-end runs twice; do the two sets agree?
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                    one run; the last line is the result as JSON
//
// A process measures one workload in one mode; the first two forms start one
// such process per run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one row of the benchmark's contract (BENCHMARK.json lists the
// same rows; the test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the stack would see. failed_frac is measured
// and printed with them, but travels in the result's own attempted/failed
// fields: it is 0 on a correct run, and a contract metric may never be 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_x", "x", "higher", 0.25},
	{"cpu_x", "x", "lower", 0.25},
	{"lat_p50_x", "x", "lower", 0.25},
	{"lat_p90_x", "x", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.03},
}

var perLayer = []metricDef{
	{name: "mad.pack_ns_per_msg", unit: "ns", better: "lower"},
	{name: "mad.pack_allocs_per_msg", unit: "count", better: "lower"},
	{name: "mad.ingest_ns_per_msg", unit: "ns", better: "lower"},
	{name: "core.submit_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.submit_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "core.backlog_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.backlog_depth", unit: "count", better: "higher"},
	{name: "core.backlog_pkts_per_frame", unit: "count", better: "higher"},
	{name: "core.recv_ns_per_frame", unit: "ns", better: "lower"},
	{name: "core.recv_self_ns_per_frame", unit: "ns", better: "lower"},
	{name: "core.pkts_per_frame", unit: "count", better: "higher"},
	{name: "core.frames_per_msg", unit: "count", better: "lower"},
	{name: "core.ctrl_frames_per_msg", unit: "count", better: "lower"},
	{name: "core.idle_upcalls_per_frame", unit: "count", better: "lower"},
	{name: "core.post_busy_frac", unit: "share", better: "lower"},
	{name: "core.nagle_fires_per_s", unit: "1/s", better: "lower"},
	{name: "core.backlog_max", unit: "count", better: "lower"},
	{name: "core.overload_goodput_frac", unit: "share", better: "higher"},
	{name: "core.metrics_into_ns", unit: "ns", better: "lower"},
	{name: "strategy.build_ns_per_plan", unit: "ns", better: "lower"},
	{name: "strategy.build_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "strategy.gain_vs_fifo_x", unit: "x", better: "higher"},
	{name: "packet.encode_ns_per_frame", unit: "ns", better: "lower"},
	{name: "packet.decode_ns_per_frame", unit: "ns", better: "lower"},
	{name: "packet.codec_ns_per_KiB", unit: "ns", better: "lower"},
	{name: "packet.wire_bytes_per_payload_byte", unit: "x", better: "lower"},
	{name: "drivers.wire_ns_per_frame", unit: "ns", better: "lower"},
	{name: "drivers.wire_self_ns_per_frame", unit: "ns", better: "lower"},
	{name: "drivers.frame_turn_ns", unit: "ns", better: "lower"},
	{name: "drivers.wire_MB_per_s", unit: "MB/s", better: "higher"},
	{name: "proto.dispatch_ns_per_frame", unit: "ns", better: "lower"},
	{name: "proto.reasm_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "proto.rdv_handshake_us_p50", unit: "us", better: "lower"},
	{name: "stats.span_observe_ns", unit: "ns", better: "lower"},
	{name: "telemetry.snapshot_us", unit: "us", better: "lower"},
	{name: "trace.gen_us_p50", unit: "us", better: "lower"},
	{name: "trace.submit_self_us_p50", unit: "us", better: "lower"},
	{name: "trace.queue_us_p50", unit: "us", better: "lower"},
	{name: "trace.wire_us_p50", unit: "us", better: "lower"},
	{name: "trace.recv_self_us_p50", unit: "us", better: "lower"},
	{name: "trace.deliver_us_p50", unit: "us", better: "lower"},
	{name: "trace.e2e_us_p50", unit: "us", better: "lower"},
	{name: "trace.unexplained_frac", unit: "share", better: "lower"},
	{name: "trace.overhead_x", unit: "x", better: "lower"},
	{name: "abs.msgs_per_s", unit: "1/s", better: "higher"},
	{name: "abs.MB_per_s", unit: "MB/s", better: "higher"},
	{name: "abs.lat_p50_us", unit: "us", better: "lower"},
	{name: "abs.lat_p90_us", unit: "us", better: "lower"},
	{name: "abs.lat_p99_us", unit: "us", better: "lower"},
	{name: "abs.cpu_us_per_msg", unit: "us", better: "lower"},
	{name: "abs.stall_segments", unit: "count", better: "lower"},
	{name: "ref.msgs_per_s", unit: "1/s", better: "higher"},
	{name: "ref.lat_p50_us", unit: "us", better: "lower"},
	{name: "ref.cpu_us_per_msg", unit: "us", better: "lower"},
	{name: "gen.late_p99_us", unit: "us", better: "lower"},
	{name: "gen.samples", unit: "count", better: "higher"},
}

// traceDir is where -trace 1 writes trace-<workload>.jsonl, relative to the
// repository root the command runs from.
var traceDir = filepath.Join("bench", "out")

// runSeconds is BENCHMARK.json's run_seconds: what one run measures for when
// -seconds is not given.
const runSeconds = 20

func main() {
	// One generator goroutine, and no more processors than the smallest
	// machine this is meant to be comparable on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	var (
		name      = flag.String("workload", "", "run only this workload (default: all)")
		seed      = flag.Int64("seed", 1, "workload seed: flow interleaving, payload bytes, position of bulk messages")
		seconds   = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; -1: both")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end benchmark twice and compare the two sets")
	)
	flag.Parse()
	if *seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace one of -1, 0, 1")
		os.Exit(2)
	}
	var chosen []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	switch {
	case *selfcheck:
		os.Exit(selfCheck(chosen, *seed, *seconds))
	case *name == "" || *trace == -1:
		os.Exit(runEach(chosen, *seed, *seconds, *trace))
	}

	// One workload in one mode: the run the driver asks for.
	w, defs := chosen[0], endToEnd
	var rep *report
	var err error
	if *trace == 0 {
		rep, err = runEndToEnd(w, *seed, e2ePlan(*seconds))
	} else {
		defs = perLayer
		rep, err = runLayers(w, *seed, layerPlan(*seconds), traceDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.check(defs)
	printReport(rep, *trace, *seed, *seconds)
	printFingerprint(*seed)
	fmt.Println(resultLine(rep, defs)) // the driver's contract: the last line is the result
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}

// child measures one workload in one mode in a process of its own, as the
// driver does, and returns what it printed: what an earlier run leaves behind
// in the runtime moves a later one's latency ratios (small_multiflow's by a
// fifth when -selfcheck still ran in one process).
func child(w *workload, seed int64, seconds float64, trace int) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	return out, err
}

// runEach runs every chosen workload in every chosen mode, one process each.
func runEach(ws []*workload, seed int64, seconds float64, trace int) int {
	code := 0
	for _, w := range ws {
		for mode := 0; mode <= 1; mode++ {
			if trace >= 0 && trace != mode {
				continue
			}
			if _, err := child(w, seed, seconds, mode); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s -trace %d: %v\n", w.name, mode, err)
				code = 1
			}
		}
	}
	return code
}

// check makes sure every contract metric was measured and is a number.
func (r *report) check(defs []metricDef) {
	for _, d := range defs {
		m, ok := r.get(d.name)
		switch {
		case !ok:
			r.problem("metric %s is missing", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.problem("metric %s is not finite: %v", d.name, m.Value)
		case m.Unit != d.unit:
			r.problem("metric %s has unit %s, the contract says %s", d.name, m.Unit, d.unit)
		}
	}
}

func printReport(r *report, mode int, seed int64, seconds float64) {
	kind := "end to end, tracing off"
	if mode == 1 {
		kind = "per layer"
	}
	fmt.Printf("== %s — %s (seed %d, %g s) ==\n", r.workload, kind, seed, seconds)
	for _, m := range r.metrics {
		fmt.Printf("%-36s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if mode == 1 {
		printStages(r)
	}
	fmt.Printf("%-36s %16d\n%-36s %16d\n", "attempted", r.attempted, "failed", r.failed)
	for _, p := range r.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	fmt.Println()
}

// printStages stacks the traced run's per-stage medians next to its
// end-to-end median. What the stages do not add up to is printed, not
// hidden: medians do not add, and the gap says by how much.
func printStages(r *report) {
	e2e, ok := r.get("trace.e2e_us_p50")
	if !ok || e2e.Value == 0 {
		return
	}
	fmt.Println("  traced message, median by stage:")
	for _, st := range []string{"gen", "submit_self", "queue", "wire", "recv_self", "deliver"} {
		if m, ok := r.get("trace." + st + "_us_p50"); ok {
			bar := strings.Repeat("#", int(math.Round(40*math.Max(m.Value, 0)/e2e.Value)))
			fmt.Printf("  %-12s %10.2f us %5.1f%% %s\n", st, m.Value, 100*m.Value/e2e.Value, bar)
		}
	}
	un, _ := r.get("trace.unexplained_frac")
	fmt.Printf("  %-12s %10.2f us %5.1f%%\n  %-12s %10.2f us\n", "unexplained", un.Value*e2e.Value, 100*un.Value, "end to end", e2e.Value)
}

// resultLine renders the driver's result object: exactly the contract's
// metrics for the mode that ran.
func resultLine(r *report, defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, map[string]value{}}
	for _, d := range defs {
		if m, ok := r.get(d.name); ok && !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			res.Metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// printFingerprint says what the numbers were measured on. Ratios travel
// between machines; the abs.* rows do not.
func printFingerprint(seed int64) {
	fmt.Printf("fingerprint: commit %s, %s, cpu %q, nproc %d, GOMAXPROCS %d, seed %d, transport: TCP over the host's loopback interface\n",
		commit(), runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed)
}

// commit reads the checked-out commit from .git in the working directory;
// a checkout without one (the driver's) is "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfCheck runs the end-to-end benchmark twice with the same seed and
// reports, per metric and workload, whether the two sets agree within the
// metric's bound: the larger may exceed the smaller by at most that share.
func selfCheck(ws []*workload, seed int64, seconds float64) int {
	type result struct {
		Metrics map[string]struct{ Value float64 }
	}
	sets := [2]map[string]result{{}, {}}
	for i := range sets {
		for _, w := range ws {
			out, err := child(w, seed, seconds, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: result line: %v\n", w.name, err)
				return 1
			}
			sets[i][w.name] = res
		}
	}
	code := 0
	fmt.Printf("== selfcheck: two sets, seed %d, %g s per run ==\n", seed, seconds)
	fmt.Printf("%-20s %-16s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "apart", "bound")
	for _, w := range ws {
		for _, d := range endToEnd {
			a, b := sets[0][w.name].Metrics[d.name].Value, sets[1][w.name].Metrics[d.name].Value
			apart := math.Max(a, b)/math.Min(a, b) - 1
			verdict := "agree"
			if !(apart <= d.bound) {
				verdict = "APART"
				if d.name != "setup_s" { // set-up time is reported, its spread not gated
					code = 1
				}
			}
			fmt.Printf("%-20s %-16s %12.5g %12.5g %7.1f%% %5.0f%% %s\n", w.name, d.name, a, b, 100*apart, 100*d.bound, verdict)
		}
	}
	printFingerprint(seed)
	return code
}
