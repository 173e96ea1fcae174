package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newmad/internal/caps"
	"newmad/internal/drivers"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/simnet"
	"newmad/internal/strategy"
)

// Send-side battery: exactly-once in-order delivery across many
// destinations, determinism under the simulated runtime, and data-race
// freedom when Submit, metrics snapshots, retuning, Flush and Close all run
// concurrently against the wall clock.

// TestShardedExactlyOnceSim runs crisscross traffic (every node sends one
// flow to every other node) through 8 engines on the simulator and checks
// per-flow in-order exactly-once delivery at every receiver.
func TestShardedExactlyOnceSim(t *testing.T) {
	const nodes = 8
	const perFlow = 12
	tn := newNet(t, nodes, "aggregate", nil)
	flow := func(src, dst int) packet.FlowID {
		return packet.FlowID(src*nodes + dst + 1)
	}
	for s := 0; s < perFlow; s++ {
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if dst == src {
					continue
				}
				p := pkt(flow(src, dst), s, packet.NodeID(src), packet.NodeID(dst), 48)
				if err := tn.engines[src].Submit(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tn.cl.Eng.Run()

	for dst := 0; dst < nodes; dst++ {
		next := map[packet.FlowID]int{}
		for _, d := range tn.inbox[dst] {
			if got := next[d.Pkt.Flow]; d.Pkt.Seq != got {
				t.Fatalf("node %d flow %d delivered seq %d, want %d", dst, d.Pkt.Flow, d.Pkt.Seq, got)
			}
			next[d.Pkt.Flow]++
		}
		for src := 0; src < nodes; src++ {
			if src == dst {
				continue
			}
			if n := next[flow(src, dst)]; n != perFlow {
				t.Fatalf("node %d flow from %d incomplete: %d/%d", dst, src, n, perFlow)
			}
		}
	}
}

// TestShardedDeterminism pins that engines with Nagle delays armed and
// fired across six destinations stay bit-for-bit deterministic under the
// single-goroutine simulator: two identical runs must produce identical
// delivery transcripts.
func TestShardedDeterminism(t *testing.T) {
	digest := func() string {
		const nodes = 6
		tn := newNet(t, nodes, "aggregate", func(o *Options) {
			o.NagleDelay = 2 * simnet.Microsecond
		}, singleChanMX())
		for s := 0; s < 10; s++ {
			for src := 0; src < nodes; src++ {
				dst := (src + 1 + s%(nodes-1)) % nodes
				p := pkt(packet.FlowID(src+1), s, packet.NodeID(src), packet.NodeID(dst), 64+8*s)
				if err := tn.engines[src].Submit(p); err != nil {
					t.Fatal(err)
				}
			}
		}
		tn.cl.Eng.Run()
		var b strings.Builder
		for n := 0; n < nodes; n++ {
			for _, d := range tn.inbox[n] {
				fmt.Fprintf(&b, "%d<-%d f%d s%d l%d;", n, d.Src, d.Pkt.Flow, d.Pkt.Seq, len(d.Pkt.Payload))
			}
		}
		return b.String()
	}
	first := digest()
	if first == "" {
		t.Fatal("empty transcript")
	}
	if second := digest(); second != first {
		t.Fatalf("sim diverged between identical runs:\n run1: %s\n run2: %s", first, second)
	}
}

// TestShardedLoopbackRace is the wall-clock concurrency battery: over real
// TCP sockets, eight concurrent submitters — flows 1–4 to node 1, 5–8 to
// node 2 — race metrics snapshots, bundle swaps, Nagle retunes (SetKnobs)
// and Flush, and the test ends with Close racing Submit. Run under -race this exercises
// every lock at once: the engine lock, channel pumps, and the atomic
// tuning/bundle swaps. The engine has a single send side, so the
// one arm is the one-shard layout.
func TestShardedLoopbackRace(t *testing.T) {
	t.Run("shards=1", shardedLoopbackRace)
}

func shardedLoopbackRace(t *testing.T) {
	const flows = 8
	nodes, cleanup, err := drivers.NewMeshCluster(3, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rt := simnet.NewRealRuntime()

	const perFlow = 40
	type rx struct {
		mu   sync.Mutex
		got  []proto.Deliverable
		done chan struct{}
		want int
	}
	mkRx := func(want int) *rx { return &rx{done: make(chan struct{}, 1), want: want} }
	receivers := map[packet.NodeID]*rx{1: mkRx(flows / 2 * perFlow), 2: mkRx(flows / 2 * perFlow)}

	mkEngine := func(n packet.NodeID, deliver proto.DeliverFunc) *Engine {
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(n, Options{
			Bundle:  b,
			Runtime: rt,
			Rails:   []drivers.Driver{nodes[n]},
			Deliver: deliver,
			Knobs:   strategy.Knobs{NagleDelay: simnet.FromWall(100 * time.Microsecond)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	for n, r := range receivers {
		r := r
		_ = mkEngine(n, func(d proto.Deliverable) {
			r.mu.Lock()
			r.got = append(r.got, d)
			if len(r.got) == r.want {
				select {
				case r.done <- struct{}{}:
				default:
				}
			}
			r.mu.Unlock()
		})
	}
	sender := mkEngine(0, func(proto.Deliverable) {})

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(3)
	go func() { // metrics snapshots with a reused scratch value
		defer aux.Done()
		var scratch Metrics
		for {
			select {
			case <-stop:
				return
			default:
			}
			sender.MetricsInto(&scratch)
		}
	}()
	bundles := registryBundles(t, "aggregate", "fifo")
	go func() { // atomic policy swaps
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sender.SetBundle(bundles[i%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // Nagle retunes and flushes
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := sender.SetKnobs(strategy.Knobs{NagleDelay: simnet.FromWall(time.Duration(i%2) * 100 * time.Microsecond)}); err != nil {
				t.Error(err)
				return
			}
			sender.Flush()
			runtime.Gosched()
		}
	}()

	var accepted atomic.Uint64 // Submits that returned nil
	var wg sync.WaitGroup
	for f := 1; f <= flows; f++ {
		f := f
		dst := packet.NodeID(1)
		if f > flows/2 {
			dst = 2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < perFlow; s++ {
				p := &packet.Packet{
					Flow: packet.FlowID(f), Msg: 1, Seq: s, Src: 0, Dst: dst,
					Class: packet.ClassSmall, Payload: make([]byte, 96),
				}
				if err := sender.Submit(p); err != nil {
					t.Error(err)
					return
				}
				accepted.Add(1)
			}
		}()
	}
	wg.Wait()
	sender.Flush()

	for n, r := range receivers {
		select {
		case <-r.done:
		case <-time.After(20 * time.Second):
			r.mu.Lock()
			got := len(r.got)
			r.mu.Unlock()
			t.Fatalf("node %d timed out with %d/%d delivered", n, got, r.want)
		}
	}
	close(stop)
	aux.Wait()

	for n, r := range receivers {
		r.mu.Lock()
		next := map[packet.FlowID]int{}
		for _, d := range r.got {
			if d.Pkt.Seq != next[d.Pkt.Flow] {
				t.Fatalf("node %d flow %d delivered seq %d, want %d", n, d.Pkt.Flow, d.Pkt.Seq, next[d.Pkt.Flow])
			}
			next[d.Pkt.Flow]++
		}
		for f, c := range next {
			if c != perFlow {
				t.Fatalf("node %d flow %d incomplete: %d/%d", n, f, c, perFlow)
			}
		}
		r.mu.Unlock()
	}

	if m := sender.Metrics(); m.Backlog != 0 || m.Submitted != accepted.Load() {
		t.Fatalf("at quiescence: Backlog = %d, Submitted = %d of %d accepted", m.Backlog, m.Submitted, accepted.Load())
	}

	// Close races Submit: late submissions either land before the closed
	// flag or come back with the closed error — nothing panics, nothing
	// deadlocks, the -race run certifies the shutdown ordering, and every
	// Submit that returned nil was counted.
	var lateWg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		lateWg.Add(1)
		go func() {
			defer lateWg.Done()
			for s := 0; s < 50; s++ {
				p := &packet.Packet{
					Flow: packet.FlowID(100 + g), Msg: 1, Seq: s, Src: 0, Dst: 1,
					Class: packet.ClassSmall, Payload: make([]byte, 32),
				}
				if err := sender.Submit(p); err != nil {
					return // "engine closed" is the expected terminal answer
				}
				accepted.Add(1)
			}
		}()
	}
	sender.Close()
	lateWg.Wait()
	if got := sender.Metrics().Submitted; got != accepted.Load() {
		t.Fatalf("after Close: Submitted = %d, Submit returned nil %d times", got, accepted.Load())
	}
}

// registryBundles instantiates the named registry bundles, for the tests
// that race SetBundle against live pumps.
func registryBundles(t *testing.T, names ...string) []strategy.Bundle {
	t.Helper()
	out := make([]strategy.Bundle, len(names))
	for i, n := range names {
		b, err := strategy.New(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}
