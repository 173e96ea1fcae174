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

func TestProfileRelativeShape(t *testing.T) {
	// The reproduction depends on relative ordering of technologies.
	// Short-message latency is the three fixed per-send costs.
	short := func(c Caps) simnet.Duration { return c.PostOverhead + c.WireLatency + c.RecvOverhead }
	if short(Elan) >= short(MX) {
		t.Fatal("Elan should have lower short-message latency than MX")
	}
	if short(MX) >= short(TCP) {
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
	for _, want := range []string{"mx", "iov=16"} {
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
