package packet

// Constraint rules.
//
// The paper: "These message internal dependencies are expressed by the
// application and middlewares through the Madeleine API ... They are taken
// into account as limiting factors — or constraints — by the scheduler while
// estimating the value of a given packet reordering operation."
//
// The rules stated here are the complete reordering contract of the
// engine. Strategies satisfy rules 1 and 2 by construction — plans drain
// each connection in waiting-list order — and the engine re-checks every
// plan with OrderedSubset before posting it. MayReorder and MustPrecede are
// the pairwise statement of rules 1 and 2, kept as the reference the
// contract is tested against; no datapath code calls them.
//
//  1. Intra-connection FIFO: two packets of the same flow bound for the
//     same destination must leave the sender in submission order
//     (receivers unpack sequentially; express fragments gate the
//     interpretation of what follows). A flow's packets to *different*
//     destinations belong to different connections and carry independent
//     sequence spaces, so no receiver can observe their relative order —
//     they reorder freely.
//  2. Cross-flow freedom: packets of different flows may be reordered
//     arbitrarily, regardless of class or destination.
//  3. Class urgency is a preference, not a constraint: control may overtake
//     bulk across flows (rule 2 already allows it), never within a flow.
//  4. Express fragments must travel eagerly: they may not be converted to a
//     rendezvous or RMA transfer, because the receiver needs the bytes in
//     hand to make progress.
//  5. Aggregation combines packets destined to the same node into one
//     network transaction. Within a frame, sub-packets appear in an order
//     consistent with rule 1; the frame as a whole satisfies each member's
//     ordering obligations simultaneously.

// MayReorder reports whether b may be sent before a when a was submitted
// first. It is the pairwise form of rule 1/2.
func MayReorder(a, b *Packet) bool {
	return a.Flow != b.Flow || a.Dst != b.Dst
}

// MustPrecede reports whether a must leave before b. (Equivalent to
// !MayReorder with the submission order made explicit.)
func MustPrecede(a, b *Packet) bool {
	return a.Flow == b.Flow && a.Dst == b.Dst && a.SubmitSeq < b.SubmitSeq
}

// EagerOnly reports whether the packet is pinned to the eager path
// (rule 4).
func EagerOnly(p *Packet) bool { return p.Recv == RecvExpress }

// AggregateLimits captures the driver-capability inputs to CanAggregate, so
// the rule layer does not import internal/caps (packet is the bottom of the
// dependency tree).
type AggregateLimits struct {
	MaxIOV       int // gather entries per send; 1 = copy-only aggregation
	MaxAggregate int // max frame payload bytes
}

// CanAppend reports whether pkt may join an aggregate frame currently
// holding count sub-packets and size payload bytes, bound for dst. The
// caller guarantees the ordering rules separately (an aggregate's members
// are drained in waiting-list order per flow).
//
// Note MaxIOV does not cap the sub-packet count when the driver lacks
// gather: a copy-based aggregate is a single contiguous buffer regardless
// of how many packets fed it. The distinction costs copy time, not a slot;
// strategies account for it via the cost model.
func CanAppend(pkt *Packet, count, size int, dst NodeID, lim AggregateLimits) bool {
	if pkt.Dst != dst {
		return false
	}
	if size+pkt.Size() > lim.MaxAggregate {
		return false
	}
	if lim.MaxIOV > 1 && count+1 > lim.MaxIOV {
		return false
	}
	return true
}

// OrderedSubset verifies that packets, in the order given, respect rule 1:
// for every connection (flow, destination), SubmitSeq is strictly
// increasing. The engine checks every plan with it before posting, and
// tests call it as the oracle for generated plans.
//
// A plan touches few connections, so the last SubmitSeq of each sits in a
// table on the stack, searched linearly: up to 64 connections cost no
// allocation and at most 64 comparisons per packet. Connections past the
// 64th go to a map.
func OrderedSubset(pkts []*Packet) bool {
	type conn struct {
		f FlowID
		d NodeID
	}
	type last struct {
		conn
		seq uint64
	}
	var tab [64]last
	n := 0
	var spill map[conn]uint64
	for _, p := range pkts {
		k := conn{p.Flow, p.Dst}
		i := 0
		for i < n && tab[i].conn != k {
			i++
		}
		switch {
		case i < n:
			if p.SubmitSeq <= tab[i].seq {
				return false
			}
			tab[i].seq = p.SubmitSeq
		case n < len(tab):
			tab[n] = last{k, p.SubmitSeq}
			n++
		default:
			if spill == nil {
				spill = map[conn]uint64{}
			}
			if prev, ok := spill[k]; ok && p.SubmitSeq <= prev {
				return false
			}
			spill[k] = p.SubmitSeq
		}
	}
	return true
}
