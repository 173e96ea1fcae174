package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"newmad/bench/layers"
)

// quick is a plan short enough for tier-1: at most 300 ms per phase. Under
// -race it sends no rendezvous probes, for skipKnownRace's reason.
func quick() plan {
	p := plan{
		satPairs: 2, satSeg: 60 * time.Millisecond, rateSegs: 4, rateSeg: 75 * time.Millisecond,
		drain: drainLimit, tracePairs: 1, rdvProbes: 8, fifoPairs: 1, overload: 100 * time.Millisecond, ledgerPer: 2 * time.Millisecond,
	}
	if raceDetector {
		p.rdvProbes = 0
	}
	return p
}

// skipKnownRace keeps the -race lane green over a race that is the engine's,
// not the benchmark's, and that this change may not fix: on the rendezvous
// path core.Engine.Submit reads rts.Ctrl.Token (engine.go, the
// armRdvRetryLocked call) after the RTS frame has been queued, where a
// concurrent pump may already have posted it and the rail recycled it. The
// workloads with rendezvous traffic hit it within seconds. Without -race they
// run and must pass.
func skipKnownRace(t *testing.T, w *workload) {
	if raceDetector && (w.name == "bulk_rdv" || w.name == "mesh_conglomerate") {
		t.Skip("core.Engine.Submit races with the pump on the rendezvous path (see skipKnownRace)")
	}
}

func checkReport(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	rep.check(defs)
	for _, p := range rep.problems {
		t.Errorf("%s: %s", rep.workload, p)
	}
	if rep.attempted == 0 || rep.failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", rep.workload, rep.attempted, rep.failed)
	}
}

// TestEndToEnd keeps every workload alive: all end-to-end metrics present,
// finite, in the contract's units, and not one message failed.
func TestEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			skipKnownRace(t, w)
			rep, err := runEndToEnd(w, 7, quick())
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			if ff, ok := rep.get("failed_frac"); !ok || ff.Value != 0 || ff.Unit != "share" {
				t.Errorf("failed_frac = %+v, want 0 share", ff)
			}
			for _, d := range endToEnd {
				if m, _ := rep.get(d.name); !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive number", d.name, m.Value)
				}
			}
		})
	}
}

// TestLayers runs the per-layer half — counters, traced segment, fifo pairs,
// overload segment, ledger — on the workload that touches the most (mad,
// three nodes, rendezvous) and on the round-trip one (two-leg spans).
func TestLayers(t *testing.T) {
	for _, name := range []string{"mesh_conglomerate", "sparse_pingpong"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var w *workload
			for _, c := range workloads() {
				if c.name == name {
					w = c
				}
			}
			skipKnownRace(t, w)
			dir := t.TempDir()
			rep, err := runLayers(w, 7, quick(), dir)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, perLayer)
			if depth, _ := rep.get("core.backlog_depth"); depth.Value < 8 {
				t.Errorf("core.backlog_depth = %v, want a backlog of at least 8", depth.Value)
			}
			if e2e, _ := rep.get("trace.e2e_us_p50"); !(e2e.Value > 0) {
				t.Errorf("trace.e2e_us_p50 = %v, want traced messages", e2e.Value)
			}
			if fi, err := os.Stat(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBacklogLedgerAggregates pins what core.backlog_ns_per_pkt claims to
// measure: the planner working over a real backlog, posting frames of more
// than one packet.
func TestBacklogLedgerAggregates(t *testing.T) {
	small := workloads()[0]
	rows, err := layers.Ledger(small.shape(20), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range rows {
		got[m.Name] = m.Value
	}
	if got["core.backlog_depth"] < 8 || got["core.backlog_pkts_per_frame"] <= 1 {
		t.Errorf("backlog depth %v, packets per frame %v: the planner saw no backlog",
			got["core.backlog_depth"], got["core.backlog_pkts_per_frame"])
	}
}

// TestContractFile keeps BENCHMARK.json and the tables in main.go in step.
func TestContractFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []row    `json:"workloads"`
		EndToEnd   []row    `json:"end_to_end"`
		PerLayer   []row    `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != runSeconds || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d paths %v, want %d [bench]", c.RunSeconds, c.Paths, runSeconds)
	}
	ws := workloads()
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads in the file, %d in the code", len(c.Workloads), len(ws))
	}
	for i, w := range ws {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file says %q (%q), code says %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, file []row, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(file), len(code))
		}
		for i, d := range code {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s %d: file says %+v, code says %+v", kind, i, f, d)
			}
			if bounded && (f.Bound == nil || *f.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the code's %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
}

// TestChecksCatch feeds the receive side what a broken stack would deliver.
func TestChecksCatch(t *testing.T) {
	w := workloads()[0]
	s := newSide("test", w, 3, nil)
	f := &w.flows[2]
	msg := func(seq uint64) []byte {
		b := make([]byte, f.size())
		s.pat.fill(b, f, seq, 0)
		return b
	}
	deliver := func(b []byte, at, from int) { s.deliver(at, from, b[:headerLen], b[headerLen:]) }
	seg := s.seg.Load()
	want := func(what string, delivered, failed int64) {
		t.Helper()
		if d, f := seg.delivered.Load(), seg.failed.Load(); d != delivered || f != failed {
			t.Errorf("after %s: delivered %d failed %d, want %d and %d", what, d, f, delivered, failed)
		}
	}
	deliver(msg(0), f.dst, f.src)
	want("an intact message", 1, 0)
	deliver(msg(0), f.dst, f.src)
	want("a duplicate", 1, 1)
	deliver(msg(2), f.dst, f.src)
	want("a gap", 1, 2)
	bad := msg(3)
	bad[len(bad)-1] ^= 1
	deliver(bad, f.dst, f.src)
	want("a flipped bit", 1, 3)
	deliver(msg(3), f.src, f.dst)
	want("a message at the wrong node", 1, 4)
	deliver(msg(3)[:40], f.dst, f.src)
	want("a truncated message", 1, 5)
}

// TestScheduleIsSeeded: the same seed gives the same messages, another seed
// others; every round serves every flow, and one message in bulkEvery is bulk.
func TestScheduleIsSeeded(t *testing.T) {
	mesh := workloads()[2]
	a, b, c := newSchedule(mesh, 1), newSchedule(mesh, 1), newSchedule(mesh, 2)
	differs, bulk := false, 0
	const n = 32 * 50
	for i := 0; i < n; i++ {
		fa, fb, fc := a.next(), b.next(), c.next()
		if fa != fb {
			t.Fatalf("message %d: same seed, flows %d and %d", i, fa.idx, fb.idx)
		}
		differs = differs || fa != fc
		if fa.bulk {
			bulk++
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 give the same schedule")
	}
	if bulk != n/mesh.bulkEvery {
		t.Errorf("%d bulk messages in %d, want %d", bulk, n, n/mesh.bulkEvery)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3.4, 3.1, 3.3, 3.6, 3.5, 3.2, 3.45, 3.38, 3.41, 3.0})
	for _, c := range []struct{ got, want float64 }{{q1, 3.175}, {q2, 3.39}, {q3, 3.4625}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("quartile %v, want %v", c.got, c.want)
		}
	}
}

// TestAnalyzeStages checks the stage arithmetic on a hand-made round trip:
// the stages partition the message's life, and the reply's submit is not
// counted twice inside the request's deliver callback.
func TestAnalyzeStages(t *testing.T) {
	set := func(sp *layers.Span, due, in, out, post, recv, din, dout int64) {
		sp.Due.Store(due)
		sp.SubmitIn.Store(in)
		sp.SubmitOut.Store(out)
		sp.Post.Store(post)
		sp.Recv.Store(recv)
		sp.DeliverIn.Store(din)
		sp.DeliverOut.Store(dout)
	}
	var req, rep layers.Span
	set(&req, 1000, 3000, 5000, 4000, 14000, 16000, 40000) // posted inside Submit
	set(&rep, 0, 17000, 18000, 21000, 30000, 33000, 34000) // posted after Submit returned
	st := layers.Analyze([]layers.Message{{Legs: []*layers.Span{&req, &rep}}})
	for _, c := range []struct {
		name string
		got  []float64
		want float64
	}{
		{"gen", st.Gen, 2}, {"submit", st.Submit, 2 + 1}, {"queue", st.Queue, -1 + 3}, {"wire", st.Wire, 10 + 9},
		{"recv", st.Recv, 2 + 3}, {"deliver", st.Deliver, 1 + 1}, {"e2e", st.E2E, 33},
	} {
		if len(c.got) != 1 || c.got[0] != c.want {
			t.Errorf("%s = %v us, want %v", c.name, c.got, c.want)
		}
	}
	var missing layers.Span
	if st := layers.Analyze([]layers.Message{{Legs: []*layers.Span{&missing}}}); st.Incomplete != 1 {
		t.Errorf("an unstamped message counted %d times as incomplete", st.Incomplete)
	}
}
