package stats

// Spans is a fixed-shape family of histograms indexed by three small
// dimensions — span kind, traffic class, rail — backed by one Histogram per
// (kind, class, rail) cell. It is the telemetry substrate for the engine's
// latency spans: the datapath calls Observe with pre-resolved integer
// indices (no map lookups, no name formatting), each cell is guarded only
// by its histogram's own mutex so observation never contends with a
// concurrent snapshot of a different cell, and Histogram.Add allocates only
// when a sample lands outside the bucket range its cell has seen (a few
// times per cell, then never) — which is what keeps the AllocsPerRun gates
// of internal/perf intact with telemetry on. Cells take no memory until
// their first sample.
//
// A nil *Spans ignores Observe and reports empty snapshots, so callers
// can thread an optional family without nil checks.
type Spans struct {
	kinds   int
	classes int
	rails   int
	cells   []Histogram
}

// NewSpans returns a family with kinds × classes × rails cells. Each
// dimension is clamped to at least 1.
func NewSpans(kinds, classes, rails int) *Spans {
	if kinds < 1 {
		kinds = 1
	}
	if classes < 1 {
		classes = 1
	}
	if rails < 1 {
		rails = 1
	}
	return &Spans{
		kinds:   kinds,
		classes: classes,
		rails:   rails,
		cells:   make([]Histogram, kinds*classes*rails),
	}
}

// Observe records one sample in the (kind, class, rail) cell. A negative
// rail (callers that genuinely have no rail context) is folded into rail
// 0; kind/class/rail beyond the family's shape are dropped rather than
// misfiled.
func (s *Spans) Observe(kind, class, rail int, v float64) {
	if s == nil {
		return
	}
	if rail < 0 {
		rail = 0
	}
	if kind < 0 || kind >= s.kinds || class < 0 || class >= s.classes || rail >= s.rails {
		return
	}
	s.cells[(kind*s.classes+class)*s.rails+rail].Add(v)
}

// SpanCell is one populated cell of a snapshot: the indices plus a deep
// copy of the cell's histogram, safe to read, merge or serialize while
// the family keeps absorbing samples.
type SpanCell struct {
	Kind  int
	Class int
	Rail  int
	Hist  *Histogram
}

// Snapshot clones every non-empty cell, in (kind, class, rail) order.
func (s *Spans) Snapshot() []SpanCell {
	if s == nil {
		return nil
	}
	var out []SpanCell
	for k := 0; k < s.kinds; k++ {
		for c := 0; c < s.classes; c++ {
			for r := 0; r < s.rails; r++ {
				if h := &s.cells[(k*s.classes+c)*s.rails+r]; h.Count() > 0 {
					out = append(out, SpanCell{Kind: k, Class: c, Rail: r, Hist: h.Clone()})
				}
			}
		}
	}
	return out
}

// Total merges every (class, rail) cell of one kind into a single fresh
// histogram — the "all traffic" view of one span.
func (s *Spans) Total(kind int) *Histogram {
	out := &Histogram{}
	if s == nil || kind < 0 || kind >= s.kinds {
		return out
	}
	for c := 0; c < s.classes; c++ {
		for r := 0; r < s.rails; r++ {
			if h := &s.cells[(kind*s.classes+c)*s.rails+r]; h.Count() > 0 {
				out.Merge(h)
			}
		}
	}
	return out
}
