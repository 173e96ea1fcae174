package core

import (
	"testing"

	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
	"newmad/internal/trace"
)

// TestEngineTraceTimeline verifies the flight recorder captures the full
// lifecycle in causal order: submit → (nagle) → plan → post → recv →
// deliver, with idle upcalls interleaved.
func TestEngineTraceTimeline(t *testing.T) {
	cl, err := drivers.NewCluster(2, singleChanMX())
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(1024)
	mk := func(n packet.NodeID) *Engine {
		b, _ := strategy.New("aggregate")
		eng, err := New(n, Options{
			Bundle:  b,
			Runtime: cl.Eng,
			Rails:   []drivers.Driver{cl.Driver(n, "mx")},
			Deliver: func(proto.Deliverable) {},
			Stats:   cl.Stats,
			Trace:   rec,
			Knobs:   strategy.Knobs{NagleDelay: 2 * simnet.Microsecond, NagleFlushCount: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	src := mk(0)
	mk(1)

	for i := 0; i < 4; i++ {
		if err := src.Submit(pkt(packet.FlowID(i+1), 0, 0, 1, 64)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.Run()

	sum := map[trace.Kind]int{}
	for _, e := range rec.Events() {
		sum[e.Kind]++
	}
	if sum[trace.KindSubmit] != 4 {
		t.Fatalf("submits = %d", sum[trace.KindSubmit])
	}
	if sum[trace.KindNagleArm] != 1 || sum[trace.KindNagleFire] != 1 {
		t.Fatalf("nagle events = %d/%d", sum[trace.KindNagleArm], sum[trace.KindNagleFire])
	}
	if sum[trace.KindPlan] == 0 || sum[trace.KindPost] == 0 {
		t.Fatal("no plan/post events")
	}
	if sum[trace.KindRecv] == 0 || sum[trace.KindDeliver] != 4 {
		t.Fatalf("recv=%d deliver=%d", sum[trace.KindRecv], sum[trace.KindDeliver])
	}

	// Causality: the first PLAN must come after the NAGLE! fire; every
	// DELIVER after the first POST.
	evs := rec.Events()
	idx := func(k trace.Kind) int {
		for i, e := range evs {
			if e.Kind == k {
				return i
			}
		}
		return -1
	}
	if idx(trace.KindNagleFire) > idx(trace.KindPlan) {
		t.Fatal("plan before nagle fire")
	}
	if idx(trace.KindPost) > idx(trace.KindDeliver) {
		t.Fatal("deliver before any post")
	}
	// The aggregated plan should cover all four packets in one frame.
	plans := eventsOf(rec, trace.KindPlan)
	if len(plans) == 0 || plans[0].A != 4 {
		t.Fatalf("first plan carried %d packets, want 4", plans[0].A)
	}
	if rec.Dump() == "" {
		t.Fatal("empty dump")
	}
}

// eventsOf returns rec's retained events of one kind, oldest first.
func eventsOf(rec *trace.Recorder, k trace.Kind) []trace.Event {
	var out []trace.Event
	for _, e := range rec.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestEngineTraceRendezvous checks rendezvous grants are recorded.
func TestEngineTraceRendezvous(t *testing.T) {
	cl2, err := drivers.NewCluster(2, singleChanMX())
	if err != nil {
		t.Fatal(err)
	}
	rec2 := trace.New(256)
	var engines [2]*Engine
	for n := packet.NodeID(0); n < 2; n++ {
		b, _ := strategy.New("aggregate")
		eng, err := New(n, Options{
			Bundle:  b,
			Runtime: cl2.Eng,
			Rails:   []drivers.Driver{cl2.Driver(n, "mx")},
			Deliver: func(proto.Deliverable) {},
			Stats:   cl2.Stats,
			Trace:   rec2,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[n] = eng
	}
	big := pkt(1, 0, 0, 1, 64<<10)
	big.Class = packet.ClassBulk
	if err := engines[0].Submit(big); err != nil {
		t.Fatal(err)
	}
	cl2.Eng.Run()
	grants := eventsOf(rec2, trace.KindRdv)
	if len(grants) != 1 || grants[0].Note != "granted" {
		t.Fatalf("rdv trace events = %v", grants)
	}
	if grants[0].A != 64<<10 {
		t.Fatalf("granted size = %d", grants[0].A)
	}
}
