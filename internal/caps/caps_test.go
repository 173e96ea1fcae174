package caps

import (
	"sort"
	"strings"
	"testing"

	"newmad/internal/simnet"
)

func TestAllPredefinedProfilesValid(t *testing.T) {
	for _, name := range Names() {
		c, ok := Lookup(name)
		if !ok {
			t.Fatalf("Names listed %q but Lookup failed", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
	if len(Names()) < 6 {
		t.Fatalf("expected at least 6 predefined profiles, got %v", Names())
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	base := MX
	cases := []struct {
		name   string
		mutate func(*Caps)
	}{
		{"empty name", func(c *Caps) { c.Name = "" }},
		{"zero bandwidth", func(c *Caps) { c.Bandwidth = 0 }},
		{"negative overhead", func(c *Caps) { c.PostOverhead = -1 }},
		{"zero iov", func(c *Caps) { c.MaxIOV = 0 }},
		{"zero aggregate", func(c *Caps) { c.MaxAggregate = 0 }},
		{"tiny mtu", func(c *Caps) { c.MTU = 32 }},
		{"zero channels", func(c *Caps) { c.Channels = 0 }},
		{"negative pio", func(c *Caps) { c.PIOMax = -1 }},
		{"negative rndv", func(c *Caps) { c.RndvThreshold = -1 }},
		{"rdma without cost", func(c *Caps) { c.RDMA = true; c.RDMASetup = 0 }},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		if c.Validate() == nil {
			t.Errorf("%s: Validate accepted invalid caps", tc.name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nonexistent"); ok {
		t.Fatal("Lookup found a profile that was never registered")
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	if err := Register(Caps{Name: "bad"}); err == nil {
		t.Fatal("Register accepted an invalid profile")
	}
}

func TestRegisterExtendsDatabase(t *testing.T) {
	c := MX
	c.Name = "test-custom"
	c.Bandwidth = 500e6
	if err := Register(c); err != nil {
		t.Fatal(err)
	}
	got, ok := Lookup("test-custom")
	if !ok || got.Bandwidth != 500e6 {
		t.Fatal("registered profile not retrievable")
	}
}

func TestGather(t *testing.T) {
	if !MX.Gather() {
		t.Fatal("MX should support gather")
	}
	if Elan.Gather() {
		t.Fatal("Elan profile should not support gather (MaxIOV=1)")
	}
}

func TestSendCostShape(t *testing.T) {
	// Small messages: latency-bound; cost nearly flat with size.
	s8 := MX.SendCost(8)
	s64 := MX.SendCost(64)
	if float64(s64) > float64(s8)*1.2 {
		t.Fatalf("small-message cost not latency-bound: 8B=%v 64B=%v", s8, s64)
	}
	// Large messages: bandwidth-bound; 64 KiB should take ≥ 64K/250MB/s.
	s64k := MX.SendCost(64 * 1024)
	min := simnet.BandwidthTime(64*1024, MX.Bandwidth)
	if s64k < min {
		t.Fatalf("64KiB cost %v below pure serialization %v", s64k, min)
	}
	// One aggregated send of 4×64B must beat four separate sends: that is
	// the paper's core claim expressed in the cost model.
	agg := MX.SendCost(4 * 64)
	four := 4 * MX.SendCost(64)
	if agg >= four {
		t.Fatalf("aggregation not profitable in cost model: agg=%v four=%v", agg, four)
	}
}

func TestSendCostPIOvsDMA(t *testing.T) {
	// Within PIOMax the DMA setup must not be charged.
	inPIO := MX.SendCost(MX.PIOMax)
	justOver := MX.SendCost(MX.PIOMax + 1)
	// The +1 byte send pays DMASetup instead of PIO per-byte cost.
	wantDelta := MX.DMASetup - simnet.Duration(MX.PIOMax)*MX.PIOCostPerByte
	gotDelta := justOver - inPIO
	// allow for the extra byte of serialization
	if gotDelta < wantDelta-10 || gotDelta > wantDelta+10 {
		t.Fatalf("PIO/DMA boundary delta = %v, want ~%v", gotDelta, wantDelta)
	}
}

func TestProfileRelativeShape(t *testing.T) {
	// The reproduction depends on relative ordering of technologies.
	if Elan.SendCost(8) >= MX.SendCost(8) {
		t.Fatal("Elan should have lower short-message latency than MX")
	}
	if MX.SendCost(8) >= TCP.SendCost(8) {
		t.Fatal("MX should have far lower latency than TCP")
	}
	if Elan.Bandwidth <= MX.Bandwidth {
		t.Fatal("Elan should have higher bandwidth than Myrinet-2000")
	}
	if WAN.WireLatency <= TCP.WireLatency {
		t.Fatal("WAN latency should dominate LAN TCP")
	}
}

func TestString(t *testing.T) {
	s := MX.String()
	for _, want := range []string{"mx", "iov=16", "rdma=false"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// TestEngineOrderMatchesDriverNames pins the one spelling of the engine's
// rail order against what core.New actually sorts — driver names, which
// embed the profile name followed by '@' — including the case a bare-name
// sort gets wrong: one profile name a strict prefix of another.
func TestEngineOrderMatchesDriverNames(t *testing.T) {
	in := []Caps{{Name: "net"}, {Name: "net2"}, {Name: "mx"}, {Name: "gige.r1"}, {Name: "gige.r0"}}
	got := EngineOrder(in)
	if in[0].Name != "net" || in[4].Name != "gige.r0" {
		t.Fatal("EngineOrder reordered its argument")
	}
	names := make([]string, len(in))
	for i, c := range in {
		names[i] = "mesh:" + c.Name + "@n3" // drivers.Mesh.Name()
	}
	sort.Strings(names)
	for i, c := range got {
		if want := names[i]; want != "mesh:"+c.Name+"@n3" {
			t.Fatalf("rail %d: EngineOrder has %q, the engine sorts %q there", i, c.Name, want)
		}
	}
	if got[3].Name != "net2" || got[4].Name != "net" {
		t.Fatalf("prefix names: got %q then %q, want net2 before net ('2' < '@')", got[3].Name, got[4].Name)
	}
}
