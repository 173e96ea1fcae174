package cluster

import (
	"sync"
	"testing"
	"time"

	"newmad/internal/chaos"
	"newmad/internal/core"
	"newmad/internal/packet"
	"newmad/internal/proto"
	"newmad/internal/testnet"
)

func socketManifest(seed uint64) *testnet.Manifest {
	m, err := testnet.Parse([]byte(`{
		"name": "socket-smoke", "seed": ` + itoa(seed) + `, "rails": 2, "drop_pct": 10,
		"engine": {"rdv_threshold": 4096, "rdv_retry_us": 2000, "rdv_retry_max": 10},
		"roles": [{"name": "all", "count": 3, "profile": "tcp"}],
		"workload": [{"from": "all", "to": "all", "msgs": 1, "size": {"lo": 256}}],
		"chaos": [
			{"at_ms": 20, "op": "rail-down", "group": "all", "rail": -1, "for_ms": 30},
			{"at_ms": 60, "op": "partition", "group": "all", "for_ms": 20}
		]
	}`))
	if err != nil {
		panic(err)
	}
	return m
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestOptionsFromManifest(t *testing.T) {
	m := socketManifest(7)
	m.Roles[0].Tenant = 3
	m.Roles[0].Quota = &testnet.QuotaClause{RatePPS: 5000, Burst: 8, Backlog: 64}
	o, err := OptionsFromManifest(m)
	if err != nil {
		t.Fatalf("OptionsFromManifest: %v", err)
	}
	// A role's quota throttles under testnet.Build; the socket tier must
	// carry it too, not run the same manifest unthrottled.
	if q, ok := o.Quotas[3]; !ok || len(o.Quotas) != 1 || q != (core.TenantQuota{Rate: 5000, Burst: 8, Backlog: 64}) {
		t.Fatalf("manifest quotas not carried: %+v", o.Quotas)
	}
	if o.Nodes != 3 || len(o.Rails) != 2 {
		t.Fatalf("topology: %d nodes, %d rails", o.Nodes, len(o.Rails))
	}
	if o.Bundle != "aggregate" || o.RdvThreshold != 4096 {
		t.Fatalf("tuning not carried: %+v", o)
	}
	if o.Chaos == nil || o.Chaos.Seed != 7 || len(o.Chaos.Rules) != 1 {
		t.Fatalf("chaos plan not derived: %+v", o.Chaos)
	}
	r := o.Chaos.Rules[0]
	if r.Kind != chaos.Drop || r.Prob != 0.10 || len(r.Frames) != 2 {
		t.Fatalf("drop rule: %+v", r)
	}
}

func TestOptionsFromManifestRejectsMixedProfiles(t *testing.T) {
	m := socketManifest(1)
	m.Roles = []testnet.Role{
		{Name: "a", Count: 2, Profile: "tcp"},
		{Name: "b", Count: 2, Profile: "mx"},
	}
	if _, err := OptionsFromManifest(m); err == nil {
		t.Fatal("mixed-profile manifest accepted for socket boot")
	}
}

// TestScriptFromManifestReplays pins the cross-tier replay contract: the
// socket tier resolves the manifest's chaos clauses to the exact schedule
// the emulated testnet runs for the same seed.
func TestScriptFromManifestReplays(t *testing.T) {
	seed := testSeed(t, 11)
	a, err := ScriptFromManifest(socketManifest(seed))
	if err != nil {
		t.Fatalf("ScriptFromManifest: %v", err)
	}
	b, err := ScriptFromManifest(socketManifest(seed))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 || len(a.Events) != len(b.Events) {
		t.Fatalf("script sizes: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed, script diverges at %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	if err := a.Validate(3, 2); err != nil {
		t.Fatalf("resolved script invalid: %v", err)
	}
}

// TestClusterFromManifestChaosSoak boots a real-socket mesh from a
// manifest, runs the manifest's chaos schedule against it while traffic
// flows, and requires exactly-once delivery — the same scenario shape the
// emulated testnet proves at 1000 nodes, here over genuine TCP.
func TestClusterFromManifestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak")
	}
	seed := testSeed(t, 21)
	m := socketManifest(seed)

	// A sender reuses one flow toward every destination, so the receiving
	// node is part of the identity of a payload.
	type key struct {
		dst  packet.NodeID
		src  packet.NodeID
		flow packet.FlowID
		seq  int
	}
	var mu sync.Mutex
	delivered := map[key]int{}
	o, err := OptionsFromManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	o.Raw = true
	o.OnDeliver = func(node packet.NodeID, d proto.Deliverable) {
		mu.Lock()
		delivered[key{node, d.Src, d.Pkt.Flow, d.Pkt.Seq}]++
		mu.Unlock()
	}
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	script, err := ScriptFromManifest(m)
	if err != nil {
		t.Fatal(err)
	}

	// Continuous small + rendezvous traffic on every ordered pair while
	// the script runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	counts := make([]int, o.Nodes)
	for s := 0; s < o.Nodes; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := c.Engine(packet.NodeID(s))
			seq := 0
			for {
				select {
				case <-stop:
					eng.Flush()
					return
				default:
				}
				for d := 0; d < o.Nodes; d++ {
					if s == d {
						continue
					}
					size := 256
					if seq%4 == 0 {
						size = 16 << 10 // crosses the 4K rendezvous threshold
					}
					p := &packet.Packet{
						Flow: packet.FlowID(10 + s), Msg: packet.MsgID(seq + 1), Seq: seq, Last: true,
						Src: packet.NodeID(s), Dst: packet.NodeID(d),
						Class: packet.ClassSmall, Payload: make([]byte, size),
					}
					if err := eng.Submit(p); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
				counts[s]++
				seq++
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	var tr chaos.Trace
	if err := c.RunScript(script, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(script.Events) {
		t.Fatalf("trace recorded %d of %d events", tr.Len(), len(script.Events))
	}
	close(stop)
	wg.Wait()

	total := 0
	for s, n := range counts {
		_ = s
		total += n * (o.Nodes - 1)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := 0
		for _, n := range delivered {
			got += n
		}
		mu.Unlock()
		if got >= total {
			break
		}
		for n := 0; n < o.Nodes; n++ {
			c.Engine(packet.NodeID(n)).Flush()
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	got := 0
	for k, n := range delivered {
		got += n
		if n != 1 {
			t.Fatalf("payload %v delivered %d times", k, n)
		}
	}
	if got != total {
		t.Fatalf("lost payloads: %d of %d delivered (trace:\n%s)", got, total, tr.String())
	}
}
