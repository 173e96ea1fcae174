package strategy

import (
	"fmt"
	"sort"
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

// Tuning is one named, complete operating point for an engine.
type Tuning struct {
	// Name identifies the tuning in the registry and in experiment rows.
	Name string
	// Bundle names the strategy bundle (must be registered).
	Bundle string
	// Lookahead bounds the backlog view per plan (0 = unbounded).
	Lookahead int
	// NagleDelay/NagleFlushCount configure the artificial delay (0 = send
	// immediately / core.DefaultNagleFlushCount).
	NagleDelay      simnet.Duration
	NagleFlushCount int
	// SearchBudget bounds rearrangement evaluations (0 = builder default).
	SearchBudget int
	// RdvThreshold overrides the eager/rendezvous switchover (0 = bundle
	// policy / driver default).
	RdvThreshold int
}

// Validate reports the first inconsistency in the tuning.
func (t Tuning) Validate() error {
	switch {
	case t.Name == "":
		return fmt.Errorf("strategy: tuning with empty name")
	case t.Bundle == "":
		return fmt.Errorf("strategy: tuning %q names no bundle", t.Name)
	case t.Lookahead < 0 || t.NagleDelay < 0 || t.NagleFlushCount < 0 ||
		t.SearchBudget < 0 || t.RdvThreshold < 0:
		return fmt.Errorf("strategy: tuning %q has a negative knob", t.Name)
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
		Name:       "latency",
		Bundle:     "aggregate",
		Lookahead:  2,
		NagleDelay: 0,
	})
	// throughput: maximize aggregation — unbounded lookahead, an artificial
	// delay with a high flush count so sparse stretches still coalesce, and
	// the adaptive class partitioning for multi-channel NICs.
	MustRegisterTuning(Tuning{
		Name:            "throughput",
		Bundle:          "adaptive",
		Lookahead:       0,
		NagleDelay:      16 * simnet.Microsecond,
		NagleFlushCount: 32,
		SearchBudget:    32,
	})
	// balanced: the compromise default — moderate delay and window; decent
	// everywhere, optimal nowhere (which is exactly what E11 measures).
	MustRegisterTuning(Tuning{
		Name:            "balanced",
		Bundle:          "aggregate",
		Lookahead:       16,
		NagleDelay:      4 * simnet.Microsecond,
		NagleFlushCount: 8,
	})
}
