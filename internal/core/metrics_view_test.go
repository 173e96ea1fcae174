package core

import (
	"errors"
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
	"newmad/internal/stats"
	"newmad/internal/strategy"
)

// Stats returns the engine's metric set, for tests that compare the
// by-name view with Metrics.
func (e *Engine) Stats() *stats.Set { return e.set }

// The one-metrics-path contract: the stats.Set is a by-name view of the
// storage Metrics is built from, never a second tally.

// viewNames is the test's own copy of the name table — every core.* counter
// the Set serves and the Metrics field it must equal — so a retagged or
// dropped field fails here instead of silently renaming a metric.
var viewNames = []struct {
	name string
	get  func(*Metrics) uint64
}{
	{"core.submitted", func(m *Metrics) uint64 { return m.Submitted }},
	{"core.submitted_bytes", func(m *Metrics) uint64 { return m.SubmittedBytes }},
	{"core.frames_posted", func(m *Metrics) uint64 { return m.FramesPosted }},
	{"core.packets_sent", func(m *Metrics) uint64 { return m.PacketsSent }},
	{"core.delivered", func(m *Metrics) uint64 { return m.Delivered }},
	{"core.delivered_bytes", func(m *Metrics) uint64 { return m.DeliveredBytes }},
	{"core.idle_upcalls", func(m *Metrics) uint64 { return m.IdleUpcalls }},
	{"core.aggregates", func(m *Metrics) uint64 { return m.Aggregates }},
	{"core.aggregated_packets", func(m *Metrics) uint64 { return m.AggregatedPackets }},
	{"core.reactive_frames", func(m *Metrics) uint64 { return m.ReactiveFrames }},
	{"core.nagle_flushes", func(m *Metrics) uint64 { return m.NagleFires }},
	{"core.rdv_started", func(m *Metrics) uint64 { return m.RdvStarted }},
	{"core.rdv_granted", func(m *Metrics) uint64 { return m.RdvGranted }},
	{"core.rdv_retries", func(m *Metrics) uint64 { return m.RdvRetries }},
	{"core.rma_puts", func(m *Metrics) uint64 { return m.RMAPuts }},
	{"core.rma_gets", func(m *Metrics) uint64 { return m.RMAGets }},
	{"core.frames_reclaimed", func(m *Metrics) uint64 { return m.FramesReclaimed }},
	{"core.failovers", func(m *Metrics) uint64 { return m.Failovers }},
	{"core.peer_down_posts", func(m *Metrics) uint64 { return m.PeerDownPosts }},
	{"core.rail_peer_downs", func(m *Metrics) uint64 {
		var n uint64
		for _, d := range m.RailDowns {
			n += d
		}
		return n
	}},
	{"core.policy_switches", func(m *Metrics) uint64 { return m.PolicySwitches }},
	{"core.tenant_retunes", func(m *Metrics) uint64 { return m.TenantRetunes }},
	{"core.tenant_throttled", func(m *Metrics) uint64 {
		var n uint64
		for _, t := range m.Tenants {
			n += t.Throttled
		}
		return n
	}},
	{"core.tenant_over_quota", func(m *Metrics) uint64 {
		var n uint64
		for _, t := range m.Tenants {
			n += t.OverQuota
		}
		return n
	}},
}

// viewMismatch compares every name the Set serves against the engines'
// Metrics summed, returning the first disagreement. moved lists names the
// scenario must have driven above zero.
func viewMismatch(set *stats.Set, engines []*Engine, moved []string) error {
	ms := make([]Metrics, len(engines))
	for i, e := range engines {
		ms[i] = e.Metrics()
	}
	want := map[string]uint64{}
	for _, row := range viewNames {
		for i := range ms {
			want[row.name] += row.get(&ms[i])
		}
	}
	var peak uint64
	for i, e := range engines {
		for ri, r := range e.Rails() {
			want["core.rail."+r.Caps().Name+".frames"] += ms[i].RailFrames[ri]
		}
		if ms[i].BacklogPeak > peak {
			peak = ms[i].BacklogPeak
		}
	}
	for name, w := range want {
		if got := set.CounterValue(name); got != w {
			return fmt.Errorf("%s = %d by name, %d summed over Metrics", name, got, w)
		}
	}
	if got, ok := set.Gauge("core.backlog_peak"); !ok || got != float64(peak) {
		return fmt.Errorf("core.backlog_peak = %v (served %v), want %d", got, ok, peak)
	}
	for _, name := range moved {
		if want[name] == 0 {
			return fmt.Errorf("%s never moved: the scenario does not exercise it", name)
		}
	}
	// The Set stores none of it: only the plan histograms live there.
	ctrs, _ := set.Names()
	for _, n := range ctrs {
		if strings.HasPrefix(n, "core.") {
			return fmt.Errorf("engine quantity %s is stored in the Set, not served", n)
		}
	}
	return nil
}

// TestSetViewMatchesMetrics drives the name table end to end on a rig Set
// shared by several engines: every core.* name read from the Set equals the
// corresponding Metrics field summed over the engines bound to it. (The
// private-Set case over cluster.New is TestClusterSetViewMatchesMetrics.)
func TestSetViewMatchesMetrics(t *testing.T) {
	t.Run("sim-3-engines", func(t *testing.T) {
		tn := newNet(t, 3, "aggregate", func(o *Options) {
			o.RdvThreshold = 4096
			o.Quotas = map[packet.TenantID]TenantQuota{1: {Backlog: 4}}
		}, singleChanMX())
		var refused int
		for src := 0; src < 3; src++ {
			dst := packet.NodeID((src + 1) % 3)
			seq := 0 // a refusal consumes no seq
			for i := 0; i < 24; i++ {
				size := 64
				if i%8 == 7 {
					size = 16 << 10 // rendezvous
				}
				p := pkt(packet.FlowID(src+1), seq, packet.NodeID(src), dst, size)
				if src == 0 {
					p.Tenant = 1 // over its backlog quota once four wait
				}
				if err := tn.engines[src].Submit(p); err != nil {
					if !errors.Is(err, ErrQuotaExceeded) {
						t.Fatal(err)
					}
					refused++
					continue
				}
				seq++
			}
		}
		put := make([]byte, 32)
		tn.engines[1].RegisterWindow(1, make([]byte, 64))
		if err := tn.engines[0].Put(1, 1, 0, put, nil); err != nil {
			t.Fatal(err)
		}
		if err := tn.engines[0].Get(1, 1, 0, 16, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
		if err := tn.engines[2].SetTenantQuota(2, TenantQuota{Rate: 1e6}); err != nil {
			t.Fatal(err)
		}
		b, _ := strategy.New("fifo")
		if err := tn.engines[2].SetBundle(b); err != nil {
			t.Fatal(err)
		}
		tn.cl.Eng.Run()
		if refused == 0 {
			t.Fatal("quota never refused: tenant_over_quota is not exercised")
		}
		err := viewMismatch(tn.cl.Stats, tn.engines, []string{
			"core.submitted", "core.delivered", "core.delivered_bytes", "core.aggregates",
			"core.aggregated_packets", "core.reactive_frames", "core.rdv_started", "core.rdv_granted",
			"core.rma_puts", "core.rma_gets", "core.idle_upcalls", "core.tenant_over_quota",
			"core.tenant_retunes", "core.policy_switches", "core.rail.mx.frames",
		})
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("mesh-rail-down", func(t *testing.T) {
		const msgs = 200
		var got atomic.Int64
		shared := &stats.Set{}
		engines, rails, cleanup := newTwoRailMeshEngines(t,
			func(packet.NodeID, proto.Deliverable) { got.Add(1) },
			Options{Stats: shared, Knobs: strategy.Knobs{RdvThreshold: 8192}})
		defer cleanup()
		for i := 0; i < msgs; i++ {
			size := 2048
			if i%16 == 15 {
				size = 32 << 10 // rendezvous
			}
			if err := engines[0].Submit(pkt(1, i, 0, 1, size)); err != nil {
				t.Fatal(err)
			}
			if i == msgs/2 {
				rails[0][0].BreakPeer(1)
			}
		}
		engines[0].Flush()
		deadline := time.Now().Add(30 * time.Second)
		for got.Load() < msgs {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", got.Load(), msgs)
			}
			time.Sleep(time.Millisecond)
		}
		// Wall-clock engines: a trailing idle upcall may land between the two
		// reads, so settle instead of demanding the first comparison hold.
		var err error
		for time.Now().Before(deadline) {
			err = viewMismatch(shared, engines[:], []string{
				"core.submitted", "core.delivered", "core.rdv_granted",
				"core.rail_peer_downs", "core.rail.tcp.r0.frames", "core.rail.tcp.r1.frames",
			})
			if err == nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatal(err)
	})
}

// TestSubmitLosingToCloseCountsNothing pins the divergence the two ledgers
// used to have: a Submit, Put or Get that parks on the engine lock and then
// loses to Close returns ErrClosed, and must not have been counted
// anywhere, by name or in Metrics, nor keep the backlog charge admission
// took for it.
func TestSubmitLosingToCloseCountsNothing(t *testing.T) {
	const tenant = 3
	submit := func(size int) func(*Engine) error {
		return func(e *Engine) error {
			p := pkt(1, 0, 0, 1, size)
			p.Tenant = tenant
			return e.Submit(p)
		}
	}
	// A Submit is past its first closed check once sequenced; Put and Get
	// check only under the lock, so a goroutine inside one is parked on it.
	sequenced := func(e *Engine) bool { return e.submitSeq.Load() != 0 }
	inside := func(fn string) func(*Engine) bool {
		return func(*Engine) bool {
			buf := make([]byte, 1<<16)
			return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "core.(*Engine)."+fn+"(")
		}
	}
	for _, tc := range []struct {
		name   string
		call   func(*Engine) error
		parked func(*Engine) bool
	}{
		{"rendezvous", submit(8192), sequenced},
		{"eager", submit(64), sequenced},
		{"put", func(e *Engine) error { return e.Put(1, 0, 0, make([]byte, 64), func() {}) }, inside("Put")},
		{"get", func(e *Engine) error { return e.Get(1, 0, 0, 64, func([]byte) {}) }, inside("Get")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := newNet(t, 2, "aggregate", func(o *Options) {
				o.RdvThreshold = 1024
				o.Quotas = map[packet.TenantID]TenantQuota{tenant: {Backlog: 4}}
			})
			e := tn.engines[0]

			e.mu.Lock()
			errc := make(chan error, 1)
			go func() { errc <- tc.call(e) }()
			for !tc.parked(e) {
				time.Sleep(100 * time.Microsecond)
			}
			e.closed.Store(true)
			e.mu.Unlock()

			if err := <-errc; !errors.Is(err, ErrClosed) {
				t.Fatalf("%s = %v, want ErrClosed", tc.name, err)
			}
			if m := e.Metrics(); m.RMAPuts != 0 || m.RMAGets != 0 || m.BulkQueued != 0 {
				t.Errorf("Metrics counted the refused %s: puts %d, gets %d, bulk queued %d",
					tc.name, m.RMAPuts, m.RMAGets, m.BulkQueued)
			}
			if n := e.Stats().CounterValue("core.submitted"); n != 0 {
				t.Errorf("core.submitted = %d after a refused Submit", n)
			}
			if n := e.Stats().CounterValue("core.submitted_bytes"); n != 0 {
				t.Errorf("core.submitted_bytes = %d after a refused Submit", n)
			}
			if m := e.Metrics(); m.Submitted != 0 || m.RdvStarted != 0 || m.Backlog != 0 {
				t.Errorf("Metrics counted the refused Submit: %+v", m.Counters)
			}
			if n := e.adm.Load().state(tenant).backlog.Load(); n != 0 {
				t.Errorf("tenant backlog charge = %d after a refused Submit", n)
			}
		})
	}
}

// TestSharedSetReadersRaceEngines is the -race battery for the by-name
// view: readers Dump a Set shared by two wall-clock engines while those
// engines submit, pump and retune. Every read takes each engine's lock
// from a foreign goroutine — outside the Set's
// own mutex, which stats.TestServeReadersRunUnlocked pins directly.
func TestSharedSetReadersRaceEngines(t *testing.T) {
	nodes, cleanup, err := drivers.NewMeshCluster(2, caps.TCP)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	rt := simnet.NewRealRuntime()
	shared := &stats.Set{}
	var delivered atomic.Int64
	var engines [2]*Engine
	for n := range engines {
		b, err := strategy.New("aggregate")
		if err != nil {
			t.Fatal(err)
		}
		engines[n], err = New(packet.NodeID(n), Options{
			Bundle: b, Runtime: rt, Rails: []drivers.Driver{nodes[n]},
			Deliver: func(proto.Deliverable) { delivered.Add(1) },
			Stats:   shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer engines[n].Close()
	}

	const perSide = 300
	stop := make(chan struct{})
	var aux, senders sync.WaitGroup
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func() { // by-name readers
			defer aux.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if shared.Dump() == "" {
					t.Error("empty dump of a populated Set")
					return
				}
				shared.CounterValue("core.frames_posted")
			}
		}()
	}
	bundles := registryBundles(t, "aggregate", "fifo")
	aux.Add(1)
	go func() { // retunes
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := engines[i%2].SetBundle(bundles[i/2%2]); err != nil {
				t.Error(err)
				return
			}
			if err := engines[i%2].SetKnobs(strategy.Knobs{Lookahead: i % 8}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for n := range engines {
		senders.Add(1)
		go func(n int) {
			defer senders.Done()
			for i := 0; i < perSide; i++ {
				if err := engines[n].Submit(pkt(packet.FlowID(n+1), i, packet.NodeID(n), packet.NodeID(1-n), 256)); err != nil {
					t.Error(err)
					return
				}
			}
		}(n)
	}
	senders.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < 2*perSide && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	aux.Wait()
	if delivered.Load() != 2*perSide {
		t.Fatalf("delivered %d of %d", delivered.Load(), 2*perSide)
	}
	if got := shared.CounterValue("core.delivered"); got != 2*perSide {
		t.Fatalf("core.delivered = %d by name, want %d", got, 2*perSide)
	}
}
