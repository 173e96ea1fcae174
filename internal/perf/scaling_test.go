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
	"newmad/internal/packet"
)

// Multi-core submit throughput. Concurrent submitters to different
// destinations all enter the engine's one send side, so more cores need not
// buy more submits per second — but they must not collapse it either: a
// pump hand-off that contending submitters can starve once took this
// workload down ~100x. BenchmarkSubmitMultiCore measures the curve;
// TestScalingGate turns the no-collapse property into a CI gate (env-gated,
// because wall-clock ratios are meaningless on an oversubscribed machine
// unless the environment vouches for the hardware).
//
// Both offer a closed loop with a bounded in-engine backlog, the way the
// repository benchmark bounds its window: nothing bounds the backlog inside
// the engine, and an unbounded offer measures how a 10^5-deep backlog plans
// (O(depth) per pump), not how Submit behaves under contention.

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

// submitThroughput runs the multi-destination submit workload at the given
// GOMAXPROCS and reports ops/sec and the backlog's high-water mark. The
// workload shape is identical at every procs value — same goroutine count,
// same per-flow packet counts, same destinations — so the only variable is
// available parallelism.
func submitThroughput(tb testing.TB, procs int) (opsPerSec float64, backlogPeak uint64) {
	tb.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)

	e, _ := newEngine(tb, nil)
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
// drives its own flow to its own destination. Compare -cpu=1,2,4,8 columns
// to read the curve.
func BenchmarkSubmitMultiCore(b *testing.B) {
	e, _ := newEngine(b, nil)
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

// TestScalingGate fails CI if submit throughput collapses under
// contention: with eight submitters, the min(8, NumCPU)-proc figure must be
// at least half the 1-proc figure. The gate only arms when
// NEWMAD_SCALING_GATE=1 (the CI bench lane exports it) because the ratio
// is hardware-dependent; below 2 cores there is nothing to measure.
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

	base, basePeak := submitThroughput(t, 1)
	t.Logf("procs=1: %.0f ops/sec, BacklogPeak %d", base, basePeak)
	many, manyPeak := submitThroughput(t, procs)
	t.Logf("procs=%d: %.0f ops/sec, BacklogPeak %d", procs, many, manyPeak)
	ratio := many / base
	fmt.Printf("SCALING ratio=%.2f procs=%d base_ops=%.0f scaled_ops=%.0f\n", ratio, procs, base, many)

	const want = 0.5
	if ratio < want {
		t.Fatalf("submit collapse: %d-proc throughput is %.2fx the 1-proc figure, want >= %.2fx", procs, ratio, want)
	}
}
