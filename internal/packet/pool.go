package packet

import (
	"math/bits"
	"sync"
)

// Pooled frame lifecycle.
//
// The steady-state datapath recycles its two per-frame objects — the Frame
// struct (with its Entries backing array) and the wire buffer a receiver
// decoded it from — through process-wide sync.Pools. The rules, enforced by
// convention and the -race ownership tests (DESIGN.md §5):
//
//   - A frame obtained from AcquireFrame has exactly one owner at any time.
//     Ownership moves with the frame: engine → driver at Post, driver →
//     engine at a frame-loss reclaim, driver → receive handler at the recv
//     upcall.
//   - Whoever consumes the frame terminally calls ReleaseFrame: the driver
//     once the bytes are out (send side), the engine after protocol
//     dispatch returns (receive side). Error paths that hand the
//     frame onward (failover reclaim, requeue) must NOT release — the new
//     owner will, after its own terminal consumption.
//   - ReleaseFrame on a frame that never came from the pool only recycles
//     its backing buffer (if any); the struct is left for the GC. Frames
//     built by tests are therefore ordinary GC objects unless someone
//     explicitly pools them.
//   - Payload bytes are never owned by the frame. On the send side they
//     alias application (or protocol-engine) memory; on the receive side
//     they alias the backing Buf until proto.Land copies them out or the
//     dispatcher pins them (see Frame.ReleaseBacking and Frame.PinBacking).
var framePool = sync.Pool{New: func() any { return &Frame{} }}

// AcquireFrame returns a reset Frame from the pool. The caller owns it
// until ownership is handed off (Post, recv upcall) or it is released.
func AcquireFrame() *Frame {
	f := framePool.Get().(*Frame)
	f.pooled = true
	return f
}

// ReleaseFrame returns f (and its unpinned backing buffer, if any) to the
// pools. The caller must be the frame's sole owner and must not touch f
// afterwards. Safe on frames that never came from the pools: only whatever
// is recyclable is recycled, the rest is left for the GC. Safe to call
// twice only in the degenerate sense that a second call on a frame not yet
// re-acquired is a no-op.
func ReleaseFrame(f *Frame) {
	if f == nil {
		return
	}
	f.ReleaseBacking()
	if !f.pooled {
		return
	}
	f.pooled = false
	f.Reset()
	framePool.Put(f)
}

// Reset clears the frame for reuse, dropping every payload reference while
// keeping the Entries backing array. Lifecycle state (pooling, backing) is
// managed by Acquire/ReleaseFrame, not here.
func (f *Frame) Reset() {
	for i := range f.Entries {
		f.Entries[i] = Entry{}
	}
	f.Entries = f.Entries[:0]
	f.Kind = 0
	f.Src = 0
	f.Dst = 0
	f.Ctrl = Ctrl{}
	f.Bulk = nil
	f.Posted = 0
}

// SetBacking records the wire buffer this frame was decoded from.
// ReleaseFrame recycles it unless PinBacking was called — the receive
// path's contract: a dispatcher that lets decoded payload bytes escape the
// upcall (rendezvous bulk, RMA get replies) pins the buffer, everything
// else is copied out so the buffer can be recycled. An unpooled buffer
// (LandingBuf's exact-size kind) backs a frame the same way; recycling it
// just means dropping it for the GC.
func (f *Frame) SetBacking(b *Buf) {
	f.backing = b
	f.pinned = false
}

// Backed reports whether the frame's payload bytes alias a wire buffer that
// ReleaseFrame will dispose of (recycled if pooled, dropped otherwise).
// Receive-side consumers that retain payload bytes past the upcall must
// either copy them (proto.Land does, for eager data) or pin the buffer.
func (f *Frame) Backed() bool { return f.backing != nil }

// PinBacking marks the backing buffer as escaped: ReleaseFrame will leave
// it to the garbage collector instead of recycling it, so payload slices
// that outlive the frame stay intact.
func (f *Frame) PinBacking() { f.pinned = true }

// ReleaseBacking disposes of the backing buffer now, as ReleaseFrame would,
// and leaves the frame unbacked and still owned by the caller — for a
// receiver that has copied every payload out of the buffer before it is
// done with the frame.
func (f *Frame) ReleaseBacking() {
	if f.backing == nil {
		return
	}
	if !f.pinned {
		PutBuf(f.backing)
	}
	f.backing = nil
	f.pinned = false
}

// Buf is a wire buffer: B holds the bytes, the rest is pool bookkeeping.
// Receivers read a frame into a Buf (LandingBuf picks which sort), decode,
// and attach it to the frame with SetBacking; ReleaseFrame routes a pooled
// one back to GetBuf's pool.
type Buf struct {
	B []byte

	class int8 // size-class index, -1 when the buffer is not pooled
}

// Wire buffers are pooled in power-of-two size classes. Frames larger than
// the biggest class (one-off giant rendezvous payloads) fall back to plain
// allocations that the GC reclaims.
//
// The classes pay off only for buffers that come back. A frame whose payload
// escapes to the application is pinned by the dispatcher and never returns,
// so rounding it up buys nothing — and it costs the most exactly where bulk
// traffic lives: a 2^k-byte payload plus its 46 header bytes lands one
// class up, 2× the memory allocated, zeroed and page-faulted per message.
// LandingBuf therefore gives those frames an exact-size unpooled buffer and
// keeps the classes for everything that recycles.
const (
	minBufShift = 9  // 512 B — smaller frames still get a 512 B buffer
	maxBufShift = 20 // 1 MiB — beyond this, don't hoard memory in pools
)

var bufPools [maxBufShift - minBufShift + 1]sync.Pool

// GetBuf returns a buffer with len(B) == n from the size-class pools.
func GetBuf(n int) *Buf {
	if n > 1<<maxBufShift {
		return newExactBuf(n)
	}
	shift := minBufShift
	if n > 1<<minBufShift {
		shift = bits.Len(uint(n - 1))
	}
	cls := shift - minBufShift
	if v := bufPools[cls].Get(); v != nil {
		b := v.(*Buf)
		b.B = b.B[:n]
		return b
	}
	return &Buf{B: make([]byte, n, 1<<shift), class: int8(cls)}
}

// newExactBuf returns an unpooled buffer of exactly n bytes; PutBuf drops it.
func newExactBuf(n int) *Buf { return &Buf{B: make([]byte, n), class: -1} }

// LandingBuf returns the buffer a socket reader should land an n-byte
// encoded frame in, given the frame's leading bytes (at least 3, not yet
// validated): kinds whose payload the dispatcher pins and hands to the
// application — FrameRData, FrameGetReply — get an exact-size unpooled
// buffer, every other kind (and anything undecodable) a pooled size class.
// Either way len(B) == n and the result backs the decoded frame through
// SetBacking, so release sites need not tell the two apart.
func LandingBuf(n int, head []byte) *Buf {
	switch FrameKind(head[kindOffset]) {
	case FrameRData, FrameGetReply:
		return newExactBuf(n)
	}
	return GetBuf(n)
}

// PutBuf returns a buffer to its size-class pool. Unpooled (oversize or
// exact-size) buffers are dropped for the GC. The caller must not touch b
// afterwards.
func PutBuf(b *Buf) {
	if b == nil || b.class < 0 {
		return
	}
	b.B = b.B[:cap(b.B)]
	bufPools[b.class].Put(b)
}
