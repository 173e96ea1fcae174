package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"newmad/bench/layers"
	"newmad/internal/packet"
)

// plan is how one run spends its time. Every timed end-to-end metric is a
// ratio of the engine to the reference, taken over many short pairs run back
// to back (ABBA), so that the machine's drift — which on a shared box moves
// absolute times by a factor of two within minutes — cancels.
type plan struct {
	satPairs int           // saturation phase: closed-loop pairs
	satSeg   time.Duration // length of one closed-loop segment
	rateSegs int           // rate phase: open-loop segments
	rateSeg  time.Duration // length of one: shared, or on a lane-bound workload half each
	drain    time.Duration // how long a segment may take to deliver what is in flight

	// Per-layer runs only.
	tracePairs int           // traced-versus-untraced rate pairs
	rdvProbes  int           // rendezvous transfers timed when the workload has none of its own
	fifoPairs  int           // aggregate-versus-fifo saturation pairs
	overload   time.Duration // length of the overload segment
	ledgerPer  time.Duration // time spent on each ledger row
}

// drainLimit is the issue's "undelivered 10 s after the generator stops".
const drainLimit = 10 * time.Second

// traceFileMessages caps the lines of a trace file.
const traceFileMessages = 20000

// overloadBytes caps what the overload segment may offer, so that a
// workload of large messages cannot queue gigabytes.
const overloadBytes = 256 << 20

// e2ePlan splits seconds 9:11 between 60 saturation pairs and 110 rate
// segments (at 20 s: segments of 75 ms and 100 ms). The issue asked for ten
// pairs of 1 s and seven of 2 s. But what scatters a pair's ratio is the draw
// its fresh stacks made (see bench), not its length: on small_multiflow the
// latency ratios spread by 10 % from run to run over 28 segments of 583 ms and
// by 4 % over 112 of 146 ms or 224 of 73 ms in the same time, so a run takes
// as many draws as its time allows. A saturation segment stays above 70 ms
// because getrusage counts in scheduler ticks: at 36 ms cpu_x got worse.
func e2ePlan(seconds float64) plan {
	unit := time.Duration(seconds / 200 * float64(time.Second))
	return plan{satPairs: 60, satSeg: unit * 3 / 4, rateSegs: 110, rateSeg: unit, drain: drainLimit}
}

// layerPlan spends about two thirds of that on fewer pairs plus the traced
// pairs, the fifo pairs and the overload segment, and the rest on the ledger.
func layerPlan(seconds float64) plan {
	unit := time.Duration(seconds / 200 * float64(time.Second))
	return plan{
		satPairs: 16, satSeg: unit * 3 / 4, rateSegs: 20, rateSeg: unit, drain: drainLimit,
		tracePairs: 40, rdvProbes: 64, fifoPairs: 10, overload: 20 * unit, ledgerPer: unit,
	}
}

type memCounters struct {
	mallocs uint64
	gcPause time.Duration
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{mallocs: m.Mallocs, gcPause: time.Duration(m.PauseTotalNs)}
}

// quartiles returns the quartiles of xs as Python's statistics.quantiles(xs,
// n=4) computes them — the contract's spread is defined on those.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func medianOf(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// report collects a run's metrics in the order they were measured.
type report struct {
	workload  string
	metrics   []layers.Metric
	attempted int64
	failed    int64
	problems  []string // anything that makes the run incorrect
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, layers.Metric{Name: name, Unit: unit, Value: v})
}

// addPairs adds the median of a per-pair ratio and, as <name>.iqr, its
// inter-quartile range.
func (r *report) addPairs(name, unit string, perPair []float64) {
	q1, q2, q3 := quartiles(perPair)
	r.add(name, unit, q2)
	r.add(name+".iqr", unit, q3-q1)
}

func (r *report) get(name string) (layers.Metric, bool) {
	for _, m := range r.metrics {
		if m.Name == name {
			return m, true
		}
	}
	return layers.Metric{}, false
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// account books a segment of an unloaded phase: every message must have
// been delivered, in order, once, intact.
func (r *report) account(what string, res *result) {
	r.attempted += res.attempted
	r.failed += res.failed
	if !res.drained {
		r.problem("%s: segment never drained: %d of %d messages unaccounted for after %v",
			what, res.attempted-res.delivered, res.attempted, drainLimit)
	} else if res.failed > 0 {
		r.problem("%s: %d of %d messages refused, lost, duplicated, reordered or corrupt", what, res.failed, res.attempted)
	}
	if res.delivered == 0 {
		r.problem("%s: nothing was delivered", what)
	}
}

// bench is one workload's run in progress.
type bench struct {
	w    *workload
	seed int64
	p    plan
	rep  *report

	// The stacks under load. They are rebuilt before every pair: what a
	// connection's ports hash to, and where the kernel and the runtime put
	// its threads, sticks for its lifetime and moved latency ratios by
	// ±15 % from one process to the next; a run has to sample that, not
	// inherit one draw of it.
	eng     *side
	engTx   *engineTx
	ref     *side
	builds  int       // stacks built so far; varies the schedule between them
	setups  []float64 // seconds each engine set-up took
	counted counters  // the engine stacks' own accounting over the saturation segments

	engSat, refSat   []*result
	engRate, refRate []*result
}

// warmUp is how long each side of a fresh pair of stacks runs closed-loop
// before it is measured.
const warmUp = 20 * time.Millisecond

// fresh replaces both stacks: the engine's — timed from cluster.New until
// every ordered pair has carried a message — and the reference's, each
// warmed for a moment. Every pair of stacks gets its own seeded schedule.
func (b *bench) fresh() error {
	b.close()
	t0 := time.Now()
	tx, err := newEngineTx(b.w, "aggregate", nil)
	if err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(t0).Seconds())
	b.engTx = tx
	seed := b.seed + int64(b.builds)<<32
	b.builds++
	b.eng = newSide("engine", b.w, seed, tx)
	rtx, err := newRefTx(b.w)
	if err != nil {
		return err
	}
	b.ref = newSide("reference", b.w, seed, rtx)
	b.rep.account("warm-up engine", b.eng.closedLoop(warmUp, b.p.drain))
	b.rep.account("warm-up reference", b.ref.closedLoop(warmUp, b.p.drain))
	return nil
}

func (b *bench) close() {
	if b.engTx != nil {
		b.engTx.close()
		b.engTx = nil
	}
	if b.ref != nil {
		b.ref.tx.close()
		b.ref = nil
	}
}

// abba runs segment i of a phase on both sides, the engine first on even i
// and the reference first on odd i.
func abba(i int, engine, reference func()) {
	if i%2 == 0 {
		engine()
		reference()
	} else {
		reference()
		engine()
	}
}

// saturate runs the saturation phase: closed-loop pairs at the workload's
// windows, each on fresh stacks.
func (b *bench) saturate() error {
	for i := 0; i < b.p.satPairs; i++ {
		if err := b.fresh(); err != nil {
			return err
		}
		abba(i, func() {
			before := b.engTx.counters()
			b.engSat = append(b.engSat, b.eng.closedLoop(b.p.satSeg, b.p.drain))
			b.counted.add(b.engTx.counters(), before)
		}, func() {
			b.refSat = append(b.refSat, b.ref.closedLoop(b.p.satSeg, b.p.drain))
		})
		b.rep.account("saturation engine", b.engSat[i])
		b.rep.account("saturation reference", b.refSat[i])
	}
	return nil
}

// rateSegment offers the workload's fixed rate to x and y for one open-loop
// segment: both in the same ticks — except on a lane-bound workload, where
// each has half of the segment to itself (see workload), x first on even i.
func (b *bench) rateSegment(i int, x, y *side) (rx, ry *result, err error) {
	if !b.w.laneBoundRate {
		res, err := openLoop([]*side{x, y}, b.w.rate, b.p.rateSeg, b.p.drain, 0)
		return res[0], res[1], err
	}
	alone := func(s *side, into **result) func() {
		return func() {
			res, e := openLoop([]*side{s}, b.w.rate, b.p.rateSeg/2, b.p.drain, 0)
			*into = res[0]
			if e != nil {
				err = e
			}
		}
	}
	abba(i, alone(x, &rx), alone(y, &ry))
	return rx, ry, err
}

// offer runs the rate phase: engine against reference, every segment on
// fresh stacks.
func (b *bench) offer() error {
	for i := 0; i < b.p.rateSegs; i++ {
		if err := b.fresh(); err != nil {
			return err
		}
		eng, ref, err := b.rateSegment(i, b.eng, b.ref)
		b.engRate, b.refRate = append(b.engRate, eng), append(b.refRate, ref)
		b.rep.account("rate engine", eng)
		b.rep.account("rate reference", ref)
		if err != nil {
			return err
		}
	}
	return nil
}

func ratio(n int, f func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// endToEnd derives the end-to-end metrics from the pairs. Every timed one is
// the median over pairs of engine ÷ reference.
func (b *bench) endToEnd() {
	r := b.rep
	sat := len(b.engSat)
	r.addPairs("goodput_x", "x", ratio(sat, func(i int) float64 { return b.engSat[i].bytesPerSec() / b.refSat[i].bytesPerSec() }))
	r.addPairs("cpu_x", "x", ratio(sat, func(i int) float64 { return b.engSat[i].cpuPerMsg() / b.refSat[i].cpuPerMsg() }))
	rate := len(b.engRate)
	r.addPairs("lat_p50_x", "x", ratio(rate, func(i int) float64 { return pctl(b.engRate[i].lat, 0.5) / pctl(b.refRate[i].lat, 0.5) }))
	r.addPairs("lat_p90_x", "x", ratio(rate, func(i int) float64 { return pctl(b.engRate[i].lat, 0.9) / pctl(b.refRate[i].lat, 0.9) }))
	r.addPairs("allocs_per_msg", "count", ratio(sat, func(i int) float64 { return float64(b.engSat[i].mallocs) / float64(b.engSat[i].delivered) }))
	r.add("failed_frac", "share", float64(r.failed)/float64(max(r.attempted, 1)))
}

func pool(rs []*result) []int64 {
	var all []int64
	for _, r := range rs {
		all = append(all, r.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// absolutes reports what the ratios are made of, in the machine's own units.
// They drift with the machine and are for reading, not for comparing.
func (b *bench) absolutes() {
	r := b.rep
	med := func(rs []*result, f func(*result) float64) float64 {
		return medianOf(ratio(len(rs), func(i int) float64 { return f(rs[i]) }))
	}
	r.add("abs.msgs_per_s", "1/s", med(b.engSat, (*result).msgsPerSec))
	r.add("abs.MB_per_s", "MB/s", med(b.engSat, (*result).bytesPerSec)/1e6)
	r.add("abs.cpu_us_per_msg", "us", med(b.engSat, (*result).cpuPerMsg)/1e3)
	var pause time.Duration
	for _, s := range b.engSat {
		pause += s.gcPause
	}
	r.add("abs.gc_pause_ms", "ms", pause.Seconds()*1e3)
	r.add("ref.msgs_per_s", "1/s", med(b.refSat, (*result).msgsPerSec))
	r.add("ref.cpu_us_per_msg", "us", med(b.refSat, (*result).cpuPerMsg)/1e3)

	lat := pool(b.engRate)
	r.add("abs.lat_p50_us", "us", pctl(lat, 0.5)/1e3)
	r.add("abs.lat_p90_us", "us", pctl(lat, 0.9)/1e3)
	r.add("abs.lat_p99_us", "us", pctl(lat, 0.99)/1e3)
	if len(lat) >= 10000 { // a percentile needs ten samples beyond it
		r.add("abs.lat_p999_us", "us", pctl(lat, 0.999)/1e3)
	}
	r.add("ref.lat_p50_us", "us", pctl(pool(b.refRate), 0.5)/1e3)
	var late []int64
	for _, s := range b.engRate {
		late = append(late, s.late...)
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	r.add("gen.late_p99_us", "us", pctl(late, 0.99)/1e3)
	r.add("gen.samples", "count", float64(len(lat)))
	stalls := 0
	for _, s := range b.engRate {
		if pctl(s.lat, 0.99) > 50*pctl(lat, 0.5) {
			stalls++
		}
	}
	r.add("abs.stall_segments", "count", float64(stalls))
}

// runEndToEnd is a --trace 0 run: tracing off, nothing but the pairs.
func runEndToEnd(w *workload, seed int64, p plan) (*report, error) {
	b := &bench{w: w, seed: seed, p: p, rep: &report{workload: w.name}}
	defer b.close()
	if err := b.saturate(); err != nil {
		return nil, err
	}
	if err := b.offer(); err != nil {
		return nil, err
	}
	// The fastest set-up, not the median one: what disturbs a set-up only
	// ever adds to it, and within ten minutes on an otherwise quiet box the
	// median of 170 moved by 23 % where the minimum moved by 5 %.
	b.rep.add("setup_s", "s", slices.Min(b.setups))
	b.endToEnd()
	b.absolutes()
	return b.rep, nil
}

// runLayers is a --trace 1 run: fewer pairs, then everything that explains
// them — the stack's own counters over the saturation segments, traced rate
// segments, aggregate against fifo, an overload segment and the ledger.
func runLayers(w *workload, seed int64, p plan, traceDir string) (*report, error) {
	b := &bench{w: w, seed: seed, p: p, rep: &report{workload: w.name}}
	defer b.close()
	r := b.rep
	if err := b.saturate(); err != nil {
		return nil, err
	}
	var msgs, secs float64
	for _, s := range b.engSat {
		msgs += float64(s.delivered)
		secs += s.elapsed.Seconds()
	}
	c := b.counted
	frames := float64(c.frames)
	pktsPerFrame := 1.0
	if c.plans > 0 {
		pktsPerFrame = c.planned / c.plans
	}
	r.add("core.pkts_per_frame", "count", pktsPerFrame)
	r.add("core.frames_per_msg", "count", frames/msgs)
	r.add("core.ctrl_frames_per_msg", "count", (frames-c.plans-float64(c.rdvGranted))/msgs)
	r.add("core.idle_upcalls_per_frame", "count", float64(c.idleUpcalls)/frames)
	r.add("core.nagle_fires_per_s", "1/s", float64(c.nagleFires)/secs)
	r.add("core.backlog_max", "count", c.backlogPeak)

	if err := b.offer(); err != nil {
		return nil, err
	}
	b.absolutes()
	if err := b.traced(traceDir); err != nil {
		return nil, err
	}
	if err := b.gainVsFifo(); err != nil {
		return nil, err
	}
	satRate, _ := r.get("abs.msgs_per_s")
	if err := b.overloaded(satRate.Value); err != nil {
		return nil, err
	}

	r.add("core.metrics_into_ns", "ns", layers.MetricsInto(b.engTx.engines[0], p.ledgerPer))
	r.add("telemetry.snapshot_us", "us", layers.FleetSnapshot(b.engTx.sources(), p.ledgerPer))
	rows, err := layers.Ledger(w.shape(int(math.Round(pktsPerFrame))), p.ledgerPer)
	if err != nil {
		return nil, err
	}
	r.metrics = append(r.metrics, rows...)
	return r, nil
}

// tracedSide boots the stack again with every rail behind a recording driver
// — the end-to-end numbers never come from such a stack — and registers the
// workload's flows with the tracer. Nothing is armed yet, so the warm-up
// goes unrecorded.
func (b *bench) tracedSide() (*side, *engineTx, error) {
	w := b.w
	tr := layers.NewTracer()
	tx, err := newEngineTx(w, "aggregate", tr)
	if err != nil {
		return nil, nil, err
	}
	s := newSide("traced engine", w, b.seed+int64(b.builds)<<32, tx)
	s.tracer, s.epoch = tr, tr.Epoch
	s.traces = make([][2]*layers.FlowTrace, len(w.flows))
	for i := range w.flows {
		f := &w.flows[i]
		src, dst := packet.NodeID(f.src), packet.NodeID(f.dst)
		if w.mad {
			// The body is the second of a message's two packets.
			s.traces[i][0] = tr.Flow(layers.FlowKey{Src: src, Dst: dst, Flow: tx.conns[i].Flow()}, 2, 1)
		} else {
			s.traces[i][0] = tr.Flow(layers.FlowKey{Src: src, Dst: dst, Flow: rawFlow(f)}, 1, 0)
		}
		if w.echo {
			s.traces[i][1] = tr.Flow(layers.FlowKey{Src: dst, Dst: src, Flow: rawFlow(f)}, 1, 0)
		}
	}
	b.rep.account("warm-up traced engine", s.closedLoop(warmUp, b.p.drain))
	return s, tx, nil
}

// arm starts recording on every flow of traced side s for its share of one
// rate segment — the schedule is balanced, and the slack covers the seeded
// positions of bulk messages — and returns each flow's first armed message.
func (b *bench) arm(s *side) (firsts []int) {
	w := b.w
	nSmall, nBulk := 0, 0
	for _, f := range w.flows {
		if f.bulk {
			nBulk++
		} else {
			nSmall++
		}
	}
	total := int(w.rate * b.p.rateSeg.Seconds())
	firsts = make([]int, len(w.flows))
	for i := range w.flows {
		share := total/nSmall + 64
		if w.flows[i].bulk {
			share = total/(w.bulkEvery*nBulk) + 64
		}
		firsts[i] = int(s.flows[i].next)
		for _, ft := range s.traces[i] {
			if ft != nil {
				ft.Arm(firsts[i], share)
			}
		}
	}
	return firsts
}

// collect returns the messages s recorded since arm, the bulk ones apart.
func (b *bench) collect(s *side, firsts []int) (msgs, bulk []layers.Message) {
	for i := range b.w.flows {
		for m := firsts[i]; m < int(s.flows[i].next); m++ {
			msg := layers.Message{Flow: i, Seq: m}
			for _, ft := range s.traces[i] {
				if ft == nil {
					continue
				}
				if sp := ft.Span(m); sp != nil {
					msg.Legs = append(msg.Legs, sp)
					msg.Keys = append(msg.Keys, ft.Key)
				}
			}
			switch {
			case len(msg.Legs) == 0:
			case b.w.flows[i].bulk:
				bulk = append(bulk, msg)
			default:
				msgs = append(msgs, msg)
			}
		}
	}
	return msgs, bulk
}

// traced runs rate segments on traced stacks, each next to an untraced one
// on a plain stack the way the rate phase runs engine next to reference, both
// fresh, and reports where a message's time went. trace.overhead_x says what
// the recording cost.
func (b *bench) traced(dir string) error {
	r := b.rep
	// The stage table is over the messages the latency metrics are over;
	// the bulk ones only contribute their rendezvous handshakes.
	var msgs, bulk []layers.Message
	var overhead []float64
	var posts, busy uint64
	for i := 0; i < b.p.tracePairs; i++ {
		if err := b.fresh(); err != nil {
			return err
		}
		s, tx, err := b.tracedSide()
		if err != nil {
			return err
		}
		firsts := b.arm(s)
		plain, rec, err := b.rateSegment(i, b.eng, s)
		m, bm := b.collect(s, firsts)
		msgs, bulk = append(msgs, m...), append(bulk, bm...)
		for _, t := range tx.traced {
			posts += t.Posts.Load()
			busy += t.Busy.Load()
		}
		tx.close()
		r.account("untraced engine", plain)
		r.account("traced engine", rec)
		if err != nil {
			return err
		}
		overhead = append(overhead, pctl(rec.lat, 0.5)/pctl(plain.lat, 0.5))
	}
	st := layers.Analyze(msgs)
	handshakes := append(st.Handshake, layers.Analyze(bulk).Handshake...)
	if len(handshakes) == 0 && b.p.rdvProbes > 0 {
		var err error
		if handshakes, err = b.rdvProbe(); err != nil {
			return err
		}
	}
	if st.Incomplete > 0 {
		r.problem("trace: %d of %d traced messages miss a stamp", st.Incomplete, len(msgs))
	}
	p50 := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return medianOf(xs)
	}
	stages := []struct {
		name string
		xs   []float64
	}{
		{"trace.gen_us_p50", st.Gen}, {"trace.submit_self_us_p50", st.Submit}, {"trace.queue_us_p50", st.Queue},
		{"trace.wire_us_p50", st.Wire}, {"trace.recv_self_us_p50", st.Recv}, {"trace.deliver_us_p50", st.Deliver},
	}
	sum := 0.0
	for _, sg := range stages {
		v := p50(sg.xs)
		sum += v
		r.add(sg.name, "us", v)
	}
	e2e := p50(st.E2E)
	r.add("trace.e2e_us_p50", "us", e2e)
	r.add("trace.unexplained_frac", "share", (e2e-sum)/e2e)
	r.add("trace.overhead_x", "x", medianOf(overhead))
	r.add("proto.rdv_handshake_us_p50", "us", p50(handshakes))
	r.add("core.post_busy_frac", "share", float64(busy)/float64(max(posts, 1)))
	return layers.WriteJSONL(filepath.Join(dir, "trace-"+b.w.name+".jsonl"), msgs[:min(len(msgs), traceFileMessages)])
}

// rdvProbe times the rendezvous handshake for a workload whose own traffic
// never takes it: 256 KiB transfers (bulk_rdv's size), one at a time, on the
// set-up probes' flow of an idle traced stack. The workloads without
// rendezvous are raw ones; through mad the probe would need a channel.
func (b *bench) rdvProbe() ([]float64, error) {
	tr := layers.NewTracer()
	tx, err := newEngineTx(b.w, "aggregate", tr)
	if err != nil {
		return nil, err
	}
	defer tx.close()
	ft := tr.Flow(layers.FlowKey{Src: 0, Dst: 1, Flow: probeFlow}, 1, 0)
	ft.Arm(1, b.p.rdvProbes) // the set-up probe was packet 0
	payload := make([]byte, 256<<10)
	var handshakes []float64
	for seq := 1; seq <= b.p.rdvProbes; seq++ {
		if err := tx.engines[0].Submit(&packet.Packet{
			Flow: probeFlow, Msg: packet.MsgID(seq), Seq: seq, Src: 0, Dst: 1,
			Class: packet.ClassBulk, Last: true, Payload: payload,
		}); err != nil {
			return nil, fmt.Errorf("rendezvous probe: %w", err)
		}
		delivered := tx.pairs + int64(seq)
		for deadline := time.Now().Add(b.p.drain); tx.probes.Load() < delivered; sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("rendezvous probe %d of %d was not delivered in %v", seq, b.p.rdvProbes, b.p.drain)
			}
		}
		sp := ft.Span(seq)
		if rts, post := sp.RTSPost.Load(), sp.Post.Load(); rts != 0 && post != 0 {
			handshakes = append(handshakes, float64(post-rts)/1e3)
		}
	}
	if len(handshakes) == 0 {
		return nil, fmt.Errorf("rendezvous probe: %d transfers of %d bytes and not one handshake on the rails", b.p.rdvProbes, len(payload))
	}
	return handshakes, nil
}

// gainVsFifo measures what the optimizer buys: saturation pairs of the
// aggregate bundle against the fifo bundle on a second stack. It is a layer
// metric on purpose — a cheaper per-frame path helps fifo more, and that
// must not read as a regression end to end.
func (b *bench) gainVsFifo() error {
	tx, err := newEngineTx(b.w, "fifo", nil)
	if err != nil {
		return err
	}
	defer tx.close()
	fifo := newSide("fifo engine", b.w, b.seed, tx)
	b.rep.account("warm-up fifo engine", fifo.closedLoop(warmUp, b.p.drain))
	var gain []float64
	for i := 0; i < b.p.fifoPairs; i++ {
		var a, f *result
		abba(i,
			func() { a = b.eng.closedLoop(b.p.satSeg, b.p.drain) },
			func() { f = fifo.closedLoop(b.p.satSeg, b.p.drain) })
		b.rep.account("aggregate engine", a)
		b.rep.account("fifo engine", f)
		gain = append(gain, a.msgsPerSec()/f.msgsPerSec())
	}
	b.rep.add("strategy.gain_vs_fifo_x", "x", medianOf(gain))
	return nil
}

// overloaded offers twice the measured saturation rate, open loop, to a
// stack of its own and reports the share of the saturation rate that still
// gets delivered while the load lasts. The segment is hard-capped: it ends
// with the offered load, drained or not, and the stack is thrown away.
func (b *bench) overloaded(satRate float64) error {
	tx, err := newEngineTx(b.w, "aggregate", nil)
	if err != nil {
		return err
	}
	defer tx.close()
	s := newSide("overloaded engine", b.w, b.seed, tx)
	limit := int64(overloadBytes / b.w.meanSize())
	// A lane-bound workload cannot be overloaded: its generator runs out
	// of time instead, which is the answer, not an error.
	both, _ := openLoop([]*side{s}, 2*satRate, b.p.overload, 0, limit)
	res := both[0]
	if res.delivered == 0 {
		b.rep.problem("overload: nothing was delivered at %.0f msgs/s", 2*satRate)
	}
	b.rep.add("core.overload_goodput_frac", "share", res.msgsPerSec()/satRate)
	return nil
}
