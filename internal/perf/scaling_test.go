package perf

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/core"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Multi-core submit scaling. The sharded engine's whole point is that
// concurrent submitters to different destinations never share a lock:
// throughput must rise with cores instead of serializing on the old
// engine-wide mutex. BenchmarkSubmitMultiCore measures it; TestScalingGate
// turns the measurement into a CI regression gate (env-gated, because
// wall-clock ratios are meaningless on an oversubscribed or single-core
// machine unless the environment vouches for the hardware).
//
// Both offer a closed loop with a bounded in-engine backlog, the way the
// repository benchmark bounds its window: nothing bounds the backlog inside
// the engine, and an unbounded offer measures how a 10^5-deep backlog plans
// (O(depth) per pump), not how Submit scales.

// maxBacklog is the waiting-packet depth above which a submitter yields
// instead of submitting.
const maxBacklog = 64

// awaitBacklogRoom yields until the engine's backlog is back under
// maxBacklog. The sink's idle upcalls keep a pump running for as long as
// anything waits, so the wait always ends.
func awaitBacklogRoom(e *core.Engine) {
	for e.BacklogLen() > maxBacklog {
		runtime.Gosched()
	}
}

// newShardedEngine builds a sink-backed engine (see newEngine in
// perf_test.go) with the given shard count.
func newShardedEngine(tb testing.TB, shards int) *core.Engine {
	tb.Helper()
	bundle, err := strategy.New("aggregate")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := core.New(0, core.Options{
		Bundle:  bundle,
		Runtime: simnet.NewRealRuntime(),
		Rails:   []drivers.Driver{newSink(0)},
		Deliver: func(proto.Deliverable) {},
		Shards:  shards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// submitThroughput runs the multi-destination submit workload at the given
// GOMAXPROCS and shard count and reports ops/sec and the backlog's
// high-water mark. The workload shape is identical at every procs value —
// same goroutine count, same per-flow packet counts, same destinations — so
// the only variable is available parallelism.
func submitThroughput(tb testing.TB, procs, shards int) (opsPerSec float64, backlogPeak uint64) {
	tb.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	e := newShardedEngine(tb, shards)
	defer e.Close()

	const goroutines = 8
	const perG = 30000
	payloads := make([][]byte, goroutines)
	for i := range payloads {
		payloads[i] = make([]byte, 64)
	}
	var start, done sync.WaitGroup
	gate := make(chan struct{})
	start.Add(goroutines)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer done.Done()
			start.Done()
			<-gate
			for s := 0; s < perG; s++ {
				p := &packet.Packet{
					Flow: packet.FlowID(g + 1), Msg: 1, Seq: s,
					Src: 0, Dst: packet.NodeID(g + 1),
					Class: packet.ClassSmall, Payload: payloads[g],
				}
				awaitBacklogRoom(e)
				if err := e.Submit(p); err != nil {
					tb.Error(err)
					return
				}
			}
		}()
	}
	start.Wait()
	t0 := time.Now()
	close(gate)
	done.Wait()
	elapsed := time.Since(t0)
	return float64(goroutines*perG) / elapsed.Seconds(), e.Metrics().BacklogPeak
}

// BenchmarkSubmitMultiCore is the parallel submit datapath: every worker
// drives its own flow to its own destination, so on a sharded engine the
// workers fan out across shards. Compare -cpu=1,2,4,8 columns to read the
// scaling curve.
func BenchmarkSubmitMultiCore(b *testing.B) {
	e := newShardedEngine(b, runtime.GOMAXPROCS(0))
	defer e.Close()
	var nextFlow atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		flow := packet.FlowID(nextFlow.Add(1))
		payload := make([]byte, 64)
		seq := 0
		for pb.Next() {
			p := &packet.Packet{
				Flow: flow, Msg: 1, Seq: seq,
				Src: 0, Dst: packet.NodeID(flow),
				Class: packet.ClassSmall, Payload: payload,
			}
			awaitBacklogRoom(e)
			if err := e.Submit(p); err != nil {
				b.Fatal(err)
			}
			seq++
		}
	})
}

// TestScalingGate fails CI if the sharded engine stops scaling with cores:
// 8-proc submit throughput must be at least 2.5x the 1-proc figure. The
// gate only arms when NEWMAD_SCALING_GATE=1 (the CI bench lane exports it)
// because the ratio is hardware-dependent; on machines with fewer than 8
// cores the gate degrades proportionally (>= 0.3 x procs) and below 2
// cores there is nothing to measure.
func TestScalingGate(t *testing.T) {
	if os.Getenv("NEWMAD_SCALING_GATE") != "1" {
		t.Skip("scaling gate disarmed; set NEWMAD_SCALING_GATE=1 to enforce")
	}
	ncpu := runtime.NumCPU()
	if ncpu < 2 {
		t.Skipf("scaling gate needs >= 2 cores, have %d", ncpu)
	}
	procs := 8
	if ncpu < procs {
		procs = ncpu
	}

	// The whole procs × shards grid is logged; the gate reads its diagonal.
	grid := map[[2]int]float64{}
	for _, p := range []int{1, procs} {
		for _, sh := range []int{1, procs} {
			ops, peak := submitThroughput(t, p, sh)
			t.Logf("procs=%d shards=%d: %.0f ops/sec, BacklogPeak %d", p, sh, ops, peak)
			grid[[2]int{p, sh}] = ops
		}
	}
	base, scaled := grid[[2]int{1, 1}], grid[[2]int{procs, procs}]
	ratio := scaled / base
	fmt.Printf("SCALING ratio=%.2f procs=%d base_ops=%.0f scaled_ops=%.0f\n", ratio, procs, base, scaled)

	want := 2.5
	if procs < 8 {
		want = 0.3 * float64(procs)
	}
	if ratio < want {
		t.Fatalf("scaling regression: %d-proc throughput is %.2fx the 1-proc figure, want >= %.2fx", procs, ratio, want)
	}
}
