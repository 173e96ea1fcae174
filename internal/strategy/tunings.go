package strategy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"newmad/internal/simnet"
)

// The tuning registry extends the strategy database from policy *structure*
// (which builder, which rail/class/protocol policies) to policy *operating
// points*: one Tuning is a complete runtime configuration of an engine —
// bundle plus every runtime-tunable scalar. The adaptive controller
// (internal/control) selects among registered tunings as the observed
// traffic regime shifts, the same way engines select bundles by name; the
// registry keeps that selectable set easily extendable, mirroring the
// paper's "database of predefined strategies".

// Knobs is an engine's runtime operating point: the five scalars a tuning
// sets beside its bundle. core.Options and core.Metrics embed it, and
// core.Engine.SetKnobs swaps it as one value.
type Knobs struct {
	// Lookahead bounds how many eligible waiting packets a plan may
	// consider (the paper's "packet lookahead window"); 0 = unbounded.
	Lookahead int
	// NagleDelay artificially delays submission-triggered sends to let
	// aggregation opportunities accumulate; 0 sends immediately.
	NagleDelay simnet.Duration
	// NagleFlushCount flushes a pending Nagle delay once this many packets
	// wait (0 = core.DefaultNagleFlushCount).
	NagleFlushCount int
	// SearchBudget is passed to the plan builder as the rearrangement
	// evaluation bound; 0 = builder default.
	SearchBudget int
	// RdvThreshold, when positive, overrides the bundle's protocol policy
	// with a plain size threshold: packets larger than it travel by
	// rendezvous (express packets stay eager regardless). 0 defers to the
	// bundle policy.
	RdvThreshold int
}

// knob is one field of Knobs, named as errors and retune notes print it.
type knob struct {
	name, val string
	v         int64
}

func (k Knobs) fields() [5]knob {
	return [5]knob{
		{"lookahead", strconv.Itoa(k.Lookahead), int64(k.Lookahead)},
		{"nagle", k.NagleDelay.String(), int64(k.NagleDelay)},
		{"flush", strconv.Itoa(k.NagleFlushCount), int64(k.NagleFlushCount)},
		{"budget", strconv.Itoa(k.SearchBudget), int64(k.SearchBudget)},
		{"rdv-threshold", strconv.Itoa(k.RdvThreshold), int64(k.RdvThreshold)},
	}
}

// KnobError is Validate's refusal: the first negative knob. Knob is
// "lookahead", "nagle", "flush", "budget" or "rdv-threshold".
type KnobError struct{ Knob, Value string }

func (e *KnobError) Error() string { return "strategy: negative knob " + e.Knob + "=" + e.Value }

// Validate is the one rule for an operating point: no knob is negative.
func (k Knobs) Validate() error {
	for _, f := range k.fields() {
		if f.v < 0 {
			return &KnobError{f.name, f.val}
		}
	}
	return nil
}

// Moved lists the knobs k sets differently from old as space-separated
// "name=value" pairs in field order; "" when none moved.
func (k Knobs) Moved(old Knobs) string {
	var moved []string
	nf, of := k.fields(), old.fields()
	for i, f := range nf {
		if f.v != of[i].v {
			moved = append(moved, f.name+"="+f.val)
		}
	}
	return strings.Join(moved, " ")
}

// Tuning is one named, complete operating point for an engine.
type Tuning struct {
	// Name identifies the tuning in the registry and in experiment rows.
	Name string
	// Bundle names the strategy bundle (must be registered).
	Bundle string
	// Knobs is the operating point applied beside the bundle.
	Knobs
}

// Validate reports the first inconsistency in the tuning.
func (t Tuning) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("strategy: tuning with empty name")
	case t.Bundle == "":
		return fmt.Errorf("strategy: tuning %q names no bundle", t.Name)
	}
	if err := t.Knobs.Validate(); err != nil {
		return fmt.Errorf("strategy: tuning %q: %w", t.Name, err)
	}
	regMu.Lock()
	_, ok := registry[t.Bundle]
	regMu.Unlock()
	if !ok {
		return fmt.Errorf("strategy: tuning %q names unregistered bundle %q", t.Name, t.Bundle)
	}
	return nil
}

var (
	tuneMu  sync.Mutex
	tunings = map[string]Tuning{}
)

// RegisterTuning adds (or replaces) a tuning in the registry.
func RegisterTuning(t Tuning) error {
	if err := t.Validate(); err != nil {
		return err
	}
	tuneMu.Lock()
	defer tuneMu.Unlock()
	tunings[t.Name] = t
	return nil
}

// MustRegisterTuning panics on RegisterTuning error, for init-time tunings.
func MustRegisterTuning(t Tuning) {
	if err := RegisterTuning(t); err != nil {
		panic(err)
	}
}

// TuningByName returns the named tuning.
func TuningByName(name string) (Tuning, error) {
	tuneMu.Lock()
	t, ok := tunings[name]
	tuneMu.Unlock()
	if !ok {
		return Tuning{}, fmt.Errorf("strategy: unknown tuning %q (have %v)", name, TuningNames())
	}
	return t, nil
}

// TuningNames returns the registered tuning names, sorted.
func TuningNames() []string {
	tuneMu.Lock()
	defer tuneMu.Unlock()
	names := make([]string, 0, len(tunings))
	for n := range tunings {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	// latency: react immediately and keep frames small — the operating
	// point for request-response traffic, where any artificial delay lands
	// on the critical path twice per round trip and deep aggregation only
	// postpones the head packet's delivery.
	MustRegisterTuning(Tuning{
		Name:   "latency",
		Bundle: "aggregate",
		Knobs:  Knobs{Lookahead: 2, NagleDelay: 0},
	})
	// throughput: maximize aggregation — unbounded lookahead, an artificial
	// delay with a high flush count so sparse stretches still coalesce, and
	// the adaptive class partitioning for multi-channel NICs.
	MustRegisterTuning(Tuning{
		Name:   "throughput",
		Bundle: "adaptive",
		Knobs: Knobs{
			Lookahead:       0,
			NagleDelay:      16 * simnet.Microsecond,
			NagleFlushCount: 32,
			SearchBudget:    32,
		},
	})
	// balanced: the compromise default — moderate delay and window; decent
	// everywhere, optimal nowhere (which is exactly what E11 measures).
	MustRegisterTuning(Tuning{
		Name:   "balanced",
		Bundle: "aggregate",
		Knobs:  Knobs{Lookahead: 16, NagleDelay: 4 * simnet.Microsecond, NagleFlushCount: 8},
	})
}
