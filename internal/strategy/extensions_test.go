package strategy

import (
	"testing"

	"newmad/internal/packet"
	"newmad/internal/simnet"
)

func TestDensestPicksDensestDestination(t *testing.T) {
	// Head goes to dst 1 alone; dst 2 has 6 aggregatable packets.
	backlog := mkBacklog([3]int{1, 1, 64})
	for i := 0; i < 6; i++ {
		backlog = append(backlog, &packet.Packet{
			Flow: packet.FlowID(i + 2), Msg: 1, Seq: 0, Dst: 2,
			Class: packet.ClassSmall, Payload: make([]byte, 64),
			SubmitSeq: uint64(i + 2),
		})
	}
	ctx := ctxWith(backlog)
	plan := NewDensest().Build(ctx)
	if plan.Packets[0].Dst != 2 || len(plan.Packets) != 6 {
		t.Fatalf("densest chose dst=%d n=%d", plan.Packets[0].Dst, len(plan.Packets))
	}
	if !packet.OrderedSubset(plan.Packets) {
		t.Fatal("densest violated ordering")
	}
}

func TestDensestStarvationBound(t *testing.T) {
	backlog := mkBacklog([3]int{1, 1, 64})
	backlog[0].Enqueued = 0 // waiting since the epoch
	for i := 0; i < 6; i++ {
		backlog = append(backlog, &packet.Packet{
			Flow: packet.FlowID(i + 2), Msg: 1, Seq: 0, Dst: 2,
			Class: packet.ClassSmall, Payload: make([]byte, 64),
			SubmitSeq: uint64(i + 2), Enqueued: 90 * simnet.Time(simnet.Microsecond),
		})
	}
	ctx := ctxWith(backlog)
	ctx.Now = 100 * simnet.Time(simnet.Microsecond) // head is 100µs old > 50µs bound
	plan := NewDensest().Build(ctx)
	if plan.Packets[0].Dst != 1 {
		t.Fatalf("starving head not served: plan dst=%d", plan.Packets[0].Dst)
	}
}

func TestDensestEmptyAndDefaults(t *testing.T) {
	d := NewDensest()
	if d.Build(ctxWith(nil)) != nil {
		t.Fatal("plan from empty backlog")
	}
	if d.Name() != "densest" {
		t.Fatal("name")
	}
	// Zero MaxAge falls back to the default bound rather than always
	// starving-serving.
	z := &Densest{}
	backlog := mkBacklog([3]int{1, 1, 64}, [3]int{2, 2, 64}, [3]int{3, 2, 64})
	plan := z.Build(ctxWith(backlog))
	if plan == nil || len(plan.Packets) != 2 {
		t.Fatalf("zero-age densest plan: %+v", plan)
	}
}

func TestDensestRegisteredBundle(t *testing.T) {
	b, err := New("densest")
	if err != nil {
		t.Fatal(err)
	}
	if b.Builder.Name() != "densest" {
		t.Fatal("bundle builder wrong")
	}
}

// Ablation: on a multi-destination backlog, densest must produce an equal
// or better score than head-first aggregation; on single-destination
// backlogs they must agree.
func TestDensestVsAggregateAblation(t *testing.T) {
	multi := mkBacklog(
		[3]int{1, 1, 64},
		[3]int{2, 2, 64}, [3]int{3, 2, 64}, [3]int{4, 2, 64}, [3]int{5, 2, 64})
	dPlan := NewDensest().Build(ctxWith(multi))
	aPlan := NewAggregate().Build(ctxWith(multi))
	if dPlan.Score < aPlan.Score {
		t.Fatalf("densest score %v < aggregate score %v on multi-dest backlog", dPlan.Score, aPlan.Score)
	}
	single := mkBacklog([3]int{1, 1, 64}, [3]int{2, 1, 64}, [3]int{3, 1, 64})
	dS := NewDensest().Build(ctxWith(single))
	aS := NewAggregate().Build(ctxWith(single))
	if len(dS.Packets) != len(aS.Packets) {
		t.Fatalf("plans differ on single destination: %d vs %d", len(dS.Packets), len(aS.Packets))
	}
}
