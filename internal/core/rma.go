package core

import (
	"fmt"

	"newmad/internal/packet"
)

// Remote-memory-access surface of the engine. Put/get transfers are the
// third traffic class the paper names; middlewares (the DSM in particular)
// use these instead of packet flows when they want one-sided semantics.
// The RMA protocol engine lives under mu with the queues its frames join.

// RegisterWindow exposes buf to remote put/get under window id.
func (e *Engine) RegisterWindow(id int32, buf []byte) {
	e.mu.Lock()
	e.rma.RegisterWindow(id, buf)
	e.mu.Unlock()
}

// Put writes data into (window, off) at dst. done, if non-nil, runs when
// the remote acknowledges. The frame is scheduled like all RMA traffic.
func (e *Engine) Put(dst packet.NodeID, window int32, off int64, data []byte, done func()) error {
	if dst == e.node {
		return fmt.Errorf("core: RMA put to self")
	}
	if err := checkSize(len(data)); err != nil {
		return err
	}
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return ErrClosed
	}
	// Completion callbacks fire inside the frame dispatcher, which runs
	// under mu; wrap them so the user code runs after unlock and may
	// re-enter the engine.
	wrapped := done
	if done != nil {
		wrapped = func() { e.pendingFns = append(e.pendingFns, done) }
	}
	e.pushFrameLocked(&e.bulkQ, e.rma.Put(dst, window, off, data, wrapped))
	e.ctr.RMAPuts++
	e.mu.Unlock()
	e.pumpAll()
	return nil
}

// Get reads n bytes from (window, off) at dst; done receives the data.
func (e *Engine) Get(dst packet.NodeID, window int32, off int64, n int, done func(data []byte)) error {
	if dst == e.node {
		return fmt.Errorf("core: RMA get from self")
	}
	if done == nil {
		return fmt.Errorf("core: RMA get requires a callback")
	}
	if err := checkSize(n); err != nil {
		return err
	}
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return ErrClosed
	}
	wrapped := func(data []byte) {
		e.pendingFns = append(e.pendingFns, func() { done(data) })
	}
	e.pushFrameLocked(&e.bulkQ, e.rma.Get(dst, window, off, n, wrapped))
	e.ctr.RMAGets++
	e.mu.Unlock()
	e.pumpAll()
	return nil
}
