// Package minidsm is a page-based distributed-shared-memory middleware —
// the third middleware substrate of the reproduction. It generates the mix
// the paper's scheduler is designed around: bulk page transfers over the
// put/get (RMA) class plus small invalidation/notice messages over the
// control class, all multiplexed with whatever else the node is sending.
//
// Design: home-based pages with read caching and write invalidation.
// Every page has a home node (round-robin by page id). Reads fetch the
// page from its home with an RMA get and cache it, registering as a sharer
// with the home; writes go to the home with an RMA put, and the home then
// sends invalidations to all other sharers. Consistency is deliberately
// weak (a write completes when the home acknowledges the put; invalidations
// propagate asynchronously) — matching the DSM systems of the paper's era
// rather than providing sequential consistency.
package minidsm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"newmad/internal/mad"
	"newmad/internal/packet"
)

// windowID is the RMA window each node exposes its homed pages through.
const windowID int32 = 0x05111

// control message opcodes (first byte of the control fragment).
const (
	opReadNotice  = 1 // payload: page(8) — "I now cache this page"
	opWriteNotice = 2 // payload: page(8) — "I wrote this page, invalidate sharers"
	opInvalidate  = 3 // payload: page(8) — "drop your copy"
)

// DSM is one node's endpoint of the shared memory space.
type DSM struct {
	session *mad.Session
	ctrl    *mad.Channel
	nodes   int
	pages   int
	pageSz  int

	mu     sync.Mutex
	window []byte            // backing store for pages homed here
	homed  map[int]int       // page -> offset into window
	cache  map[int][]byte    // read cache of remote pages
	share  map[int]sharerSet // for homed pages: nodes caching them
	// counters for tests and experiments
	invalidationsSent uint64
	invalidationsRcvd uint64
	cacheHits         uint64
	cacheMisses       uint64
}

type sharerSet map[packet.NodeID]bool

// New creates the endpoint for a space of pages×pageSize bytes shared by
// the given number of nodes. Page p is homed on node p mod nodes. All
// nodes must construct their DSM with identical geometry.
func New(session *mad.Session, nodes, pages, pageSize int) (*DSM, error) {
	if nodes < 2 || pages < 1 || pageSize < 1 {
		return nil, fmt.Errorf("minidsm: bad geometry nodes=%d pages=%d pageSize=%d", nodes, pages, pageSize)
	}
	d := &DSM{
		session: session,
		ctrl:    session.Channel("minidsm.ctrl"),
		nodes:   nodes,
		pages:   pages,
		pageSz:  pageSize,
		homed:   make(map[int]int),
		cache:   make(map[int][]byte),
		share:   make(map[int]sharerSet),
	}
	self := int(session.Node())
	count := 0
	for p := 0; p < pages; p++ {
		if p%nodes == self {
			d.homed[p] = count * pageSize
			d.share[p] = make(sharerSet)
			count++
		}
	}
	d.window = make([]byte, count*pageSize)
	session.Engine().RegisterWindow(windowID, d.window)
	d.ctrl.OnMessage(d.onControl)
	return d, nil
}

// home returns the home node of page p.
func (d *DSM) home(p int) packet.NodeID { return packet.NodeID(p % d.nodes) }

// Stats returns (invalidations sent, received, cache hits, misses).
func (d *DSM) Stats() (invSent, invRcvd, hits, misses uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.invalidationsSent, d.invalidationsRcvd, d.cacheHits, d.cacheMisses
}

// Read obtains the current contents of page p; done receives a snapshot
// (caller may retain it). Cached pages return synchronously.
func (d *DSM) Read(p int, done func(data []byte)) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if done == nil {
		return fmt.Errorf("minidsm: Read requires a callback")
	}
	d.mu.Lock()
	if off, ok := d.homed[p]; ok {
		// Local home: serve directly.
		snap := append([]byte(nil), d.window[off:off+d.pageSz]...)
		d.cacheHits++
		d.mu.Unlock()
		done(snap)
		return nil
	}
	if data, ok := d.cache[p]; ok {
		snap := append([]byte(nil), data...)
		d.cacheHits++
		d.mu.Unlock()
		done(snap)
		return nil
	}
	d.cacheMisses++
	d.mu.Unlock()

	home := d.home(p)
	off := int64(d.remoteOffset(p))
	// Register as sharer first (control class), then fetch the page.
	d.sendCtrl(home, opReadNotice, p)
	return d.session.Engine().Get(home, windowID, off, d.pageSz, func(data []byte) {
		d.mu.Lock()
		d.cache[p] = append([]byte(nil), data...)
		d.mu.Unlock()
		done(append([]byte(nil), data...))
	})
}

// Write stores data into page p at offset off; done fires when the home
// has acknowledged the write. The writer's own cache is updated in place;
// other sharers receive invalidations.
func (d *DSM) Write(p int, off int, data []byte, done func()) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if off < 0 || off+len(data) > d.pageSz {
		return fmt.Errorf("minidsm: write [%d,%d) outside page of %d bytes", off, off+len(data), d.pageSz)
	}
	d.mu.Lock()
	if winOff, ok := d.homed[p]; ok {
		// Local home: write through and invalidate sharers directly.
		copy(d.window[winOff+off:], data)
		sharers := d.sharersLocked(p, d.session.Node())
		d.mu.Unlock()
		d.invalidate(p, sharers)
		if done != nil {
			done()
		}
		return nil
	}
	// Update own cached copy if present.
	if cached, ok := d.cache[p]; ok {
		copy(cached[off:], data)
	}
	d.mu.Unlock()

	home := d.home(p)
	base := int64(d.remoteOffset(p))
	return d.session.Engine().Put(home, windowID, base+int64(off), data, func() {
		// Home has the bytes; now ask it to invalidate other sharers.
		d.sendCtrl(home, opWriteNotice, p)
		if done != nil {
			done()
		}
	})
}

// remoteOffset computes the offset of page p inside its home's window:
// the index of p among the pages homed on that node, times the page size.
func (d *DSM) remoteOffset(p int) int {
	return (p / d.nodes) * d.pageSz
}

func (d *DSM) checkPage(p int) error {
	if p < 0 || p >= d.pages {
		return fmt.Errorf("minidsm: page %d outside [0,%d)", p, d.pages)
	}
	return nil
}

// sendCtrl emits a one-fragment control message about page p.
func (d *DSM) sendCtrl(dst packet.NodeID, op byte, page int) {
	var buf [9]byte
	buf[0] = op
	binary.BigEndian.PutUint64(buf[1:], uint64(page))
	conn := d.ctrl.Connect(dst)
	m := conn.BeginPacking()
	m.PackClass(buf[:], mad.SendSafer, mad.RecvExpress, packet.ClassControl)
	m.EndPacking()
}

// sharersLocked snapshots the sharers of a homed page, excluding one node.
// The result is sorted: map iteration order must not leak into the message
// schedule, or simulation runs stop being reproducible.
func (d *DSM) sharersLocked(p int, except packet.NodeID) []packet.NodeID {
	var out []packet.NodeID
	for n := range d.share[p] {
		if n != except {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// invalidate sends an invalidation to each sharer and forgets them.
func (d *DSM) invalidate(p int, sharers []packet.NodeID) {
	for _, n := range sharers {
		d.sendCtrl(n, opInvalidate, p)
		d.mu.Lock()
		d.invalidationsSent++
		delete(d.share[p], n)
		d.mu.Unlock()
	}
}

func (d *DSM) onControl(src packet.NodeID, msg *mad.Incoming) {
	if len(msg.Fragments) != 1 || len(msg.Fragments[0]) != 9 {
		panic(fmt.Sprintf("minidsm: malformed control message from %d", src))
	}
	op := msg.Fragments[0][0]
	page := int(binary.BigEndian.Uint64(msg.Fragments[0][1:]))
	switch op {
	case opReadNotice:
		d.mu.Lock()
		set, ok := d.share[page]
		if !ok {
			d.mu.Unlock()
			panic(fmt.Sprintf("minidsm: read notice for page %d not homed here", page))
		}
		set[src] = true
		d.mu.Unlock()
	case opWriteNotice:
		d.mu.Lock()
		if _, ok := d.share[page]; !ok {
			d.mu.Unlock()
			panic(fmt.Sprintf("minidsm: write notice for page %d not homed here", page))
		}
		sharers := d.sharersLocked(page, src)
		d.mu.Unlock()
		d.invalidate(page, sharers)
	case opInvalidate:
		d.mu.Lock()
		delete(d.cache, page)
		d.invalidationsRcvd++
		d.mu.Unlock()
	default:
		panic(fmt.Sprintf("minidsm: unknown control op %d", op))
	}
}
