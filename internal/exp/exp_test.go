package exp

import (
	"fmt"
	"strings"
	"testing"

	"newmad/internal/caps"
	"newmad/internal/packet"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

var quick = Config{Quick: true, Seed: 1}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registered %d experiments, want 15 (E1..E11 + X1, X2, X4, X6)", len(all))
	}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
	}
	// Natural ordering: E1..E11, then the X-series addenda.
	if all[0].ID != "E1" || all[10].ID != "E11" || all[11].ID != "X1" || all[14].ID != "X6" {
		t.Fatalf("ordering: first=%s eleventh=%s then=%s last=%s", all[0].ID, all[10].ID, all[11].ID, all[14].ID)
	}
	if _, ok := Get("E1"); !ok {
		t.Fatal("Get(E1) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("Get(E99) succeeded")
	}
}

func TestX1ShapeWANAggregation(t *testing.T) {
	fifo := X1Goodput("fifo", 8, quick)
	agg := X1Goodput("aggregate", 8, quick)
	if agg <= fifo {
		t.Fatalf("WAN goodput: aggregate %.2f MB/s !> fifo %.2f MB/s", agg, fifo)
	}
}

// TestX2ShapeMeshMatchesModel asserts the property X2 exists to check: the
// optimizer's transaction accounting (it aggregates: fewer frames than
// messages) holds on both the simulated fabric and the real mesh, and every
// message survives the real transport. The mesh half measures real sockets
// on a possibly-noisy machine (a slow host aggregates differently), so the
// whole measurement retries through the shared best-of-3 helper.
func TestX2ShapeMeshMatchesModel(t *testing.T) {
	sim, err := X2Sim(quick)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Frames == 0 {
		t.Fatal("no frames in the model run")
	}
	if sim.Frames >= uint64(sim.Msgs) {
		t.Fatalf("no aggregation in the model: %d frames for %d msgs", sim.Frames, sim.Msgs)
	}
	if err := RetryShape(3, func() error {
		mesh, err := X2Mesh(quick)
		if err != nil {
			return err
		}
		if sim.Msgs != mesh.Msgs {
			return fmt.Errorf("workloads diverge: sim %d msgs, mesh %d msgs", sim.Msgs, mesh.Msgs)
		}
		if mesh.Frames == 0 {
			return fmt.Errorf("no frames over the mesh")
		}
		if mesh.Frames >= uint64(mesh.Msgs) {
			return fmt.Errorf("no aggregation over the mesh: %d frames for %d msgs", mesh.Frames, mesh.Msgs)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestX4ShapeMultiRailBeatsSingleRail asserts the property X4 exists to
// check: striping the conglomerate workload across ≥2 real TCP rails beats
// the single-rail transport on wall-clock throughput, and the bulk frames
// genuinely spread over the rails. Wall-clock comparisons on a shared
// machine are noisy, so the whole paired measurement retries through the
// shared best-of-3 helper (each attempt measures both configurations
// back-to-back — comparing a fast attempt of one against a slow attempt of
// the other would manufacture exactly the flake being removed).
func TestX4ShapeMultiRailBeatsSingleRail(t *testing.T) {
	if err := RetryShape(3, func() error {
		single, err := X4Mesh(quick, 1)
		if err != nil {
			return err
		}
		multi, err := X4Mesh(quick, 2)
		if err != nil {
			return err
		}
		if single.Msgs != multi.Msgs || single.Bytes != multi.Bytes {
			return fmt.Errorf("workloads diverge: single %d msgs/%d B, multi %d msgs/%d B",
				single.Msgs, single.Bytes, multi.Msgs, multi.Bytes)
		}
		for name, frames := range multi.RailFrames {
			if frames == 0 {
				return fmt.Errorf("rail %s posted no frames: striping inert (distribution %v)", name, multi.RailFrames)
			}
		}
		if multi.Completion >= single.Completion {
			return fmt.Errorf("multi-rail does not beat single-rail: 2 rails %v !< 1 rail %v",
				multi.Completion, single.Completion)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestX6ShapeFloodIsolation is the admission-control subsystem's
// acceptance criterion: with a flooding tenant ramped to 10× its quota on
// a shared engine, (a) the protected tenants' p99 end-to-end latency stays
// within 25% of the no-flood baseline of the identical schedule, (b) the
// flooder's excess is refused with typed errors — explicitly, never
// silently dropped (x6Run errors out if any admitted packet fails to
// arrive), (c) the control loop's multiplier update demotes the flooder's
// quota within one control interval of the onset, and (d) the delivery
// ledger is exactly-once.
func TestX6ShapeFloodIsolation(t *testing.T) {
	res, err := X6Flood(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range []packet.TenantID{1, 2} {
		base, flood := res.Base.P99Us[tn], res.Flood.P99Us[tn]
		if base <= 0 || flood <= 0 {
			t.Fatalf("tenant %d: p99 not populated (base %v, flood %v)", tn, base, flood)
		}
		if flood > base*1.25 {
			t.Errorf("tenant %d not isolated: flood p99 %.2fµs vs baseline %.2fµs (>25%%)", tn, flood, base)
		}
		if res.Flood.Refused[tn] != 0 {
			t.Errorf("protected tenant %d saw %d refusals", tn, res.Flood.Refused[tn])
		}
	}
	fl := packet.TenantID(3)
	if res.Flood.Refused[fl] == 0 {
		t.Error("flooder at 10× quota was never refused")
	}
	if got, want := res.Flood.Offered[fl], res.Flood.Admitted[fl]+res.Flood.Refused[fl]; got != want {
		t.Errorf("flooder ledger leaks: %d offered != %d admitted + refused", got, want)
	}
	if res.Flood.Duplicates != 0 {
		t.Errorf("%d duplicate deliveries", res.Flood.Duplicates)
	}
	if !res.Flood.RetuneSeen {
		t.Fatal("control loop never demoted the flooder's quota")
	}
	if res.Flood.RetuneAfter > res.Interval {
		t.Errorf("flooder demoted %v after onset; want within one control interval (%v)", res.Flood.RetuneAfter, res.Interval)
	}
	if res.Flood.FlooderRateEnd >= 50e3 {
		t.Errorf("flooder rate never demoted below nominal: %.0f pps", res.Flood.FlooderRateEnd)
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(quick)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				out := tb.String()
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table %q", e.ID, tb.Title)
				}
				if !strings.Contains(out, "==") {
					t.Fatalf("%s: malformed table:\n%s", e.ID, out)
				}
			}
		})
	}
}

// --- Shape assertions: the reproduction's acceptance criteria. -------------

func TestE1ShapeAggregationWins(t *testing.T) {
	// The headline: with several flows, the aggregating engine must beat
	// the previous Madeleine by a wide margin; with one flow the gap
	// narrows (aggregation needs concurrency to feed on).
	multi := E1Speedup(8, quick)
	if multi < 2.0 {
		t.Fatalf("8-flow aggregation speedup = %.2fx, want >= 2x (the paper's 'huge gains')", multi)
	}
	single := E1Speedup(1, quick)
	if single > multi {
		t.Fatalf("single-flow speedup %.2fx exceeds multi-flow %.2fx", single, multi)
	}
}

func TestE2ShapeWiderWindowFewerFrames(t *testing.T) {
	narrow := E2Frames(1, quick)
	wide := E2Frames(0, quick)
	if wide >= narrow {
		t.Fatalf("frames: window=1 %d, unbounded %d — wider window should aggregate more", narrow, wide)
	}
}

func TestE3ShapeNagleTradeoff(t *testing.T) {
	none := E3Point(0, quick)
	delayed := E3Point(32*simnet.Microsecond, quick)
	if delayed.Frames >= none.Frames {
		t.Fatalf("frames: no-delay %d, 32µs %d — delay should reduce transactions", none.Frames, delayed.Frames)
	}
	if delayed.MeanLatUs <= none.MeanLatUs {
		t.Fatalf("latency: no-delay %.1fµs, 32µs %.1fµs — delay must cost latency", none.MeanLatUs, delayed.MeanLatUs)
	}
}

func TestE4ShapeSharedRailsWin(t *testing.T) {
	single, pinned, shared := E4Times(quick)
	if shared >= single {
		t.Fatalf("dual shared (%v) not faster than single rail (%v)", shared, single)
	}
	if shared >= pinned {
		t.Fatalf("shared pool (%v) not faster than pinned mapping (%v)", shared, pinned)
	}
}

func TestE5ShapeReservedLaneProtectsControl(t *testing.T) {
	single := E5ControlP99(strategy.SingleQueue{}, quick)
	reserved := E5ControlP99(strategy.ReservedControl{}, quick)
	if reserved >= single {
		t.Fatalf("control p99: reserved %.1fµs !< single-queue %.1fµs", reserved, single)
	}
}

func TestE6ShapeQualitySaturates(t *testing.T) {
	q1 := E6Quality(1, quick)
	q16 := E6Quality(16, quick)
	if q16 > q1 {
		t.Fatalf("budget 16 (%v) worse than budget 1 (%v)", q16, q1)
	}
	// Saturation: going far beyond the useful budget changes little.
	q64 := E6Quality(64, quick)
	if q64 > q16*1.1 {
		t.Fatalf("budget 64 (%v) much worse than 16 (%v)", q64, q16)
	}
}

func TestE7ShapeCapabilityDriven(t *testing.T) {
	mx := E7PacketsPerFrame(caps.MX, quick)
	ib := E7PacketsPerFrame(caps.IB, quick)
	if mx <= ib {
		t.Fatalf("packets/frame: MX (iov16) %.1f !> IB (iov4) %.1f", mx, ib)
	}
	elan := E7PacketsPerFrame(caps.Elan, quick)
	if elan <= 1.01 {
		t.Fatalf("Elan copy-based aggregation inactive: %.2f packets/frame", elan)
	}
}

func TestE8ShapeProtocolCrossover(t *testing.T) {
	// Small messages: eager must beat rendezvous-always (RTS/CTS round
	// trip dominates).
	eSmall := E8Time(strategy.EagerAlways{}, 64, quick)
	rSmall := E8Time(strategy.ThresholdProtocol{Override: 1}, 64, quick)
	if eSmall >= rSmall {
		t.Fatalf("64B: eager %.0fns !< rndv %.0fns", eSmall, rSmall)
	}
	// Large messages: rendezvous must beat eager (eager pays staging and
	// SAN frame segmentation; rendezvous streams).
	eBig := E8Time(strategy.EagerAlways{}, 1<<20, quick)
	rBig := E8Time(strategy.ThresholdProtocol{}, 1<<20, quick)
	if rBig >= eBig {
		t.Fatalf("1MiB: rndv %.0fns !< eager %.0fns", rBig, eBig)
	}
}

func TestE9ShapeConglomerateGains(t *testing.T) {
	fifo, agg := E9Times(quick)
	if agg >= fifo {
		t.Fatalf("conglomerate: aggregate (%v) not faster than fifo (%v)", agg, fifo)
	}
}

// TestE11ShapeControllerTracksPhases is the controller's acceptance
// criterion: within 10% of the best static tuning on every phase of the
// alternating workload, and strictly ahead of every static tuning
// end-to-end — while actually retuning (a lucky static draw does not
// count).
func TestE11ShapeControllerTracksPhases(t *testing.T) {
	results, err := E11All(quick)
	if err != nil {
		t.Fatal(err)
	}
	var adaptive *E11Result
	statics := map[string]E11Result{}
	for i := range results {
		if results[i].Name == "adaptive" {
			adaptive = &results[i]
		} else {
			statics[results[i].Name] = results[i]
		}
	}
	if adaptive == nil || len(statics) < 2 {
		t.Fatalf("incomplete results: %+v", results)
	}
	if adaptive.Retunes == 0 {
		t.Fatal("controller never retuned — the workload no longer alternates regimes")
	}
	for phase := range adaptive.PhaseTimes {
		best := simnet.Duration(1 << 62)
		bestName := ""
		for name, s := range statics {
			if s.PhaseTimes[phase] < best {
				best, bestName = s.PhaseTimes[phase], name
			}
		}
		got := adaptive.PhaseTimes[phase]
		if float64(got) > 1.10*float64(best) {
			t.Errorf("phase %d: adaptive %v exceeds best static (%s, %v) by more than 10%%",
				phase, got, bestName, best)
		}
	}
	for name, s := range statics {
		if adaptive.Total >= s.Total {
			t.Errorf("end-to-end: adaptive %v does not beat static %s %v",
				adaptive.Total, name, s.Total)
		}
	}
}

func TestE10ShapeAdaptiveTracksPhases(t *testing.T) {
	single := E10CtrlP99(strategy.SingleQueue{}, quick)
	adaptive := E10CtrlP99(strategy.NewAdaptiveClasses(32), quick)
	if adaptive >= single {
		t.Fatalf("control p99: adaptive %.1fµs !< single queue %.1fµs", adaptive, single)
	}
}
