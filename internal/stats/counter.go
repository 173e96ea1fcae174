package stats

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing tally. The zero value is zero.
// Counters are lock-free: wire-driver owners, the chaos injector and the
// controller increment shared counters from several goroutines at once, so
// an increment costs one atomic add, not a mutex handoff.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current tally.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Set is a named registry of counters and histograms, one per engine or
// experiment. The zero value is ready to use.
//
// A name is either stored — written through Counter or Histogram — or
// served: computed at read time by a Reader registered with Serve, whose
// owner keeps the storage (the engine's core.* counters live in its own
// tallies and are only named here). Gauges are always served.
// CounterValue, Gauge and Dump resolve both; Names lists what the Set
// itself stores.
type Set struct {
	mu      sync.Mutex
	ctrs    map[string]*Counter
	hists   map[string]*Histogram
	readers []Reader
}

// Reader reports the values its owner serves by name: it calls counter or
// gauge once per name, with the value at the time of the call.
type Reader func(counter func(name string, v uint64), gauge func(name string, v float64))

// Serve registers r as a read-time source of named values. Several readers
// may serve the same name (the engines of one rig sharing a Set); their
// values merge as Totals do.
func (s *Set) Serve(r Reader) {
	s.mu.Lock()
	s.readers = append(s.readers, r)
	s.mu.Unlock()
}

// Totals holds named values merged by one rule: counters sum, gauges take
// the largest. Counter and Gauge are a Reader's two callbacks, and the zero
// value is ready to use.
type Totals struct {
	Counters map[string]uint64  `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// Counter adds v to the named counter.
func (t *Totals) Counter(name string, v uint64) {
	if t.Counters == nil {
		t.Counters = make(map[string]uint64)
	}
	t.Counters[name] += v
}

// Gauge raises the named gauge to v if v is larger or the gauge is new.
func (t *Totals) Gauge(name string, v float64) {
	if t.Gauges == nil {
		t.Gauges = make(map[string]float64)
	}
	if old, ok := t.Gauges[name]; !ok || v > old {
		t.Gauges[name] = v
	}
}

// Add merges o into t.
func (t *Totals) Add(o Totals) {
	for n, v := range o.Counters {
		t.Counter(n, v)
	}
	for n, v := range o.Gauges {
		t.Gauge(n, v)
	}
}

// served runs every reader and merges what they report. Readers run outside
// s.mu: a reader takes its owner's lock (an engine's mu), and that ranks
// above this leaf mutex — code holding it writes stored counters and
// histograms.
func (s *Set) served() Totals {
	s.mu.Lock()
	rs := s.readers // append-only: the prefix captured here never changes
	s.mu.Unlock()
	var t Totals
	for _, r := range rs {
		r(t.Counter, t.Gauge)
	}
	return t
}

// Counter returns (creating on first use) the named counter.
func (s *Set) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctrs == nil {
		s.ctrs = make(map[string]*Counter)
	}
	c, ok := s.ctrs[name]
	if !ok {
		c = &Counter{}
		s.ctrs[name] = c
	}
	return c
}

// Histogram returns (creating on first use) the named histogram.
func (s *Set) Histogram(name string) *Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge value and whether a reader serves it.
func (s *Set) Gauge(name string) (float64, bool) {
	v, ok := s.served().Gauges[name]
	return v, ok
}

// CounterValue returns the value of the named counter, stored or served,
// zero if absent.
func (s *Set) CounterValue(name string) uint64 {
	s.mu.Lock()
	c, ok := s.ctrs[name]
	s.mu.Unlock()
	if ok {
		return c.Value()
	}
	return s.served().Counters[name]
}

// Names returns the sorted names of all stored counters, then histograms —
// useful for stable debug dumps.
func (s *Set) Names() (counters, hists []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedNames(s.ctrs), sortedNames(s.hists)
}

func sortedNames[V any](m map[string]V) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Dump renders every metric, stored and served, on its own line, sorted,
// for debugging.
func (s *Set) Dump() string {
	cn, hn := s.Names()
	t := s.served()
	for _, n := range cn {
		t.Counter(n, s.CounterValue(n))
	}
	out := ""
	for _, n := range sortedNames(t.Counters) {
		out += fmt.Sprintf("counter %-40s %d\n", n, t.Counters[n])
	}
	for _, n := range hn {
		out += fmt.Sprintf("hist    %-40s %s\n", n, s.Histogram(n).String())
	}
	for _, n := range sortedNames(t.Gauges) {
		out += fmt.Sprintf("gauge   %-40s %g\n", n, t.Gauges[n])
	}
	return out
}
