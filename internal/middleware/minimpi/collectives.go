package minimpi

import "fmt"

// The one collective: a dissemination barrier. Its tags sit above the
// reserved base and never collide with application tags by convention:
// applications keep theirs below it.

const tagBarrierBase = int64(1) << 40

// Barrier completes (calls done) after every rank has entered the barrier.
// It uses the dissemination algorithm: ceil(log2(n)) rounds, each rank
// sending a token to rank+2^k and awaiting one from rank-2^k. Tokens are
// tiny express control messages — the latency-critical traffic class.
func (w *World) Barrier(done func()) {
	if w.size == 1 {
		done()
		return
	}
	w.mu.Lock()
	w.barrierSeq++
	seq := w.barrierSeq
	w.mu.Unlock()

	var round func(k int)
	round = func(k int) {
		dist := 1 << k
		if dist >= w.size {
			done()
			return
		}
		to := (w.rank + dist) % w.size
		from := (w.rank - dist + w.size) % w.size
		tag := tagBarrierBase + int64(seq)<<8 + int64(k)
		if err := w.Send(to, tag, nil); err != nil {
			panic(fmt.Sprintf("minimpi: barrier send: %v", err))
		}
		w.Recv(from, tag, func(int, int64, []byte) { round(k + 1) })
	}
	round(0)
}
