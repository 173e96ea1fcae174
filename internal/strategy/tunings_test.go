package strategy

import (
	"strings"
	"testing"

	"newmad/internal/simnet"
)

func TestBuiltinTuningsRegistered(t *testing.T) {
	names := TuningNames()
	for _, want := range []string{"latency", "throughput", "balanced"} {
		tn, err := TuningByName(want)
		if err != nil {
			t.Fatalf("builtin tuning %q missing: %v (have %v)", want, err, names)
		}
		if _, err := New(tn.Bundle); err != nil {
			t.Fatalf("tuning %q names uninstantiable bundle: %v", want, err)
		}
	}
	// The latency point must be delay-free and the throughput point must
	// not: the controller's whole premise is that these differ.
	lat, _ := TuningByName("latency")
	thr, _ := TuningByName("throughput")
	if lat.NagleDelay != 0 {
		t.Fatalf("latency tuning has artificial delay %v", lat.NagleDelay)
	}
	if thr.NagleDelay == 0 {
		t.Fatal("throughput tuning has no artificial delay")
	}
	if thr.Lookahead != 0 {
		t.Fatalf("throughput tuning bounds lookahead to %d", thr.Lookahead)
	}
}

func TestRegisterTuningValidation(t *testing.T) {
	cases := []struct {
		name string
		tune Tuning
		want string
	}{
		{"empty name", Tuning{Bundle: "aggregate"}, "empty name"},
		{"no bundle", Tuning{Name: "x"}, "names no bundle"},
		{"unknown bundle", Tuning{Name: "x", Bundle: "nope"}, "unregistered bundle"},
		{"negative knob", Tuning{Name: "x", Bundle: "aggregate", Knobs: Knobs{Lookahead: -1}}, "negative knob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := RegisterTuning(tc.tune)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RegisterTuning = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestRegisterTuningRoundTrip(t *testing.T) {
	in := Tuning{
		Name: "test-custom", Bundle: "fifo",
		Knobs: Knobs{
			Lookahead: 4, NagleDelay: 2 * simnet.Microsecond,
			NagleFlushCount: 6, SearchBudget: 8, RdvThreshold: 1024,
		},
	}
	if err := RegisterTuning(in); err != nil {
		t.Fatal(err)
	}
	out, err := TuningByName("test-custom")
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	found := false
	for _, n := range TuningNames() {
		if n == "test-custom" {
			found = true
		}
	}
	if !found {
		t.Fatal("test-custom not listed in TuningNames")
	}
}
