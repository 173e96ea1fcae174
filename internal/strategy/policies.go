package strategy

import (
	"sync"

	"newmad/internal/caps"
	"newmad/internal/packet"
)

// --- Rail policies ---------------------------------------------------------

// PinnedRail is the one-to-one mapping the paper demotes to "one mere
// scheduling policy": each flow is statically assigned to one rail by flow
// id. With a single rail it degenerates to "everything eligible".
type PinnedRail struct{}

// Name returns "rail-pinned".
func (PinnedRail) Name() string { return "rail-pinned" }

// Eligible pins flow f to rail f mod Count.
func (PinnedRail) Eligible(p *packet.Packet, rail RailInfo) bool {
	if rail.Count <= 1 {
		return true
	}
	return int(p.Flow)%rail.Count == rail.Index
}

// SharedRail pools every rail: any packet may travel on any NIC, so an
// idle NIC always finds work — the paper's dynamic load balancing across
// multiple resources, including NICs of different technologies.
type SharedRail struct{}

// Name returns "rail-shared".
func (SharedRail) Name() string { return "rail-shared" }

// Eligible admits everything.
func (SharedRail) Eligible(*packet.Packet, RailInfo) bool { return true }

// AffinityRail sends latency-sensitive classes on the lowest-latency rail
// and bulk on the highest-bandwidth rail, while letting either overflow to
// the other when classes are quiet — a heterogeneous-technology policy for
// MX+Elan style nodes.
type AffinityRail struct {
	// Rails must describe every rail of the node, indexed like RailInfo.
	Rails []caps.Caps
}

// Name returns "rail-affinity".
func (a *AffinityRail) Name() string { return "rail-affinity" }

// Eligible prefers strict placement but only forbids the clearly wrong
// rail: bulk may not occupy the lowest-latency rail when a higher-bandwidth
// rail exists; control may not occupy the highest-bandwidth rail unless it
// is also the lowest-latency one.
func (a *AffinityRail) Eligible(p *packet.Packet, rail RailInfo) bool {
	if len(a.Rails) <= 1 {
		return true
	}
	fastest, lowest := a.extremes()
	switch p.Class {
	case packet.ClassBulk, packet.ClassRMA:
		return rail.Index != lowest || lowest == fastest
	case packet.ClassControl:
		return rail.Index != fastest || lowest == fastest
	default:
		return true
	}
}

func (a *AffinityRail) extremes() (fastestBW, lowestLat int) {
	for i, c := range a.Rails {
		if c.Bandwidth > a.Rails[fastestBW].Bandwidth {
			fastestBW = i
		}
		if c.PostOverhead+c.WireLatency < a.Rails[lowestLat].PostOverhead+a.Rails[lowestLat].WireLatency {
			lowestLat = i
		}
	}
	return
}

// --- Class policies --------------------------------------------------------

// SingleQueue lets every class use every channel — no traffic segregation
// (the baseline for E5).
type SingleQueue struct{}

// Name returns "classes-single".
func (SingleQueue) Name() string { return "classes-single" }

// Allowed admits every class on every channel.
func (SingleQueue) Allowed(packet.ClassID, int, int) bool { return true }

// Observe ignores traffic.
func (SingleQueue) Observe(*packet.Packet) {}

// ReservedControl dedicates channel 0 to control/signalling traffic and
// keeps bulk off it, so a stream of large sends can never queue ahead of a
// latency-critical token — the paper's class-to-channel assignment.
type ReservedControl struct{}

// Name returns "classes-reserved".
func (ReservedControl) Name() string { return "classes-reserved" }

// Allowed reserves channel 0: control stays on its dedicated lane (which
// is what preserves the latency guarantee), small traffic may go anywhere,
// and bulk/RMA are confined to the remaining channels.
func (ReservedControl) Allowed(class packet.ClassID, ch, numCh int) bool {
	if numCh <= 1 {
		return true
	}
	switch class {
	case packet.ClassControl:
		return ch == 0
	case packet.ClassSmall:
		return true
	default: // bulk, rma
		return ch != 0
	}
}

// Observe ignores traffic.
func (ReservedControl) Observe(*packet.Packet) {}

// AdaptiveClasses re-partitions channels between the latency classes
// (control+small) and the throughput classes (bulk+rma) in proportion to
// recently observed traffic, re-assigning resources as the application's
// phases change (E10). It is safe for concurrent Observe/Allowed.
type AdaptiveClasses struct {
	// Window is how many packets form one observation period.
	Window int

	mu        sync.Mutex
	seen      int
	latCount  int
	bulkCount int
	// bulkShare is the fraction of channels currently granted to
	// throughput classes, updated each window.
	bulkShare float64
}

// NewAdaptiveClasses returns an adaptive policy with the given window
// (packets per adaptation period; <=0 means 256).
func NewAdaptiveClasses(window int) *AdaptiveClasses {
	if window <= 0 {
		window = 256
	}
	return &AdaptiveClasses{Window: window, bulkShare: 0.5}
}

// Name returns "classes-adaptive".
func (a *AdaptiveClasses) Name() string { return "classes-adaptive" }

// Observe counts traffic and re-partitions at window boundaries.
func (a *AdaptiveClasses) Observe(p *packet.Packet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen++
	switch p.Class {
	case packet.ClassBulk, packet.ClassRMA:
		a.bulkCount++
	default:
		a.latCount++
	}
	if a.seen >= a.Window {
		total := a.bulkCount + a.latCount
		if total > 0 {
			a.bulkShare = float64(a.bulkCount) / float64(total)
		}
		a.seen, a.bulkCount, a.latCount = 0, 0, 0
	}
}

// Allowed splits channels [0, split) for latency classes and [split,
// numCh) for throughput classes, where split tracks the observed mix; each
// side always keeps at least one channel.
func (a *AdaptiveClasses) Allowed(class packet.ClassID, ch, numCh int) bool {
	if numCh <= 1 {
		return true
	}
	a.mu.Lock()
	share := a.bulkShare
	a.mu.Unlock()
	bulkChans := int(share*float64(numCh) + 0.5)
	if bulkChans < 1 {
		bulkChans = 1
	}
	if bulkChans > numCh-1 {
		bulkChans = numCh - 1
	}
	split := numCh - bulkChans // channels [split, numCh) are bulk's
	switch class {
	case packet.ClassBulk, packet.ClassRMA:
		return ch >= split
	default:
		return ch < split
	}
}

// --- Protocol policies -----------------------------------------------------

// ThresholdProtocol switches to rendezvous above a size threshold: the
// driver profile's RndvThreshold by default, or Override when positive.
// Express packets are never eligible regardless (also enforced upstream).
type ThresholdProtocol struct {
	// Override replaces the capability record's threshold when > 0.
	Override int
}

// Name returns "proto-threshold".
func (ThresholdProtocol) Name() string { return "proto-threshold" }

// UseRendezvous applies the effective threshold.
func (t ThresholdProtocol) UseRendezvous(p *packet.Packet, c caps.Caps) bool {
	if packet.EagerOnly(p) {
		return false
	}
	thr := c.RndvThreshold
	if t.Override > 0 {
		thr = t.Override
	}
	return p.Size() > thr
}

// EagerAlways never uses rendezvous — the ablation baseline for E8.
type EagerAlways struct{}

// Name returns "proto-eager".
func (EagerAlways) Name() string { return "proto-eager" }

// UseRendezvous always declines.
func (EagerAlways) UseRendezvous(*packet.Packet, caps.Caps) bool { return false }
