//go:build goexperiment.synctest

// go.mod's language version defaults asynctimerchan to 1, under which
// synctest.Run panics.
//go:debug asynctimerchan=0

package drivers

import (
	"testing"
	"testing/synctest"
)

// The bubble environment: pipeNet inside a testing/synctest bubble. The
// clock is fake and moves only when every goroutine of the bubble is durably
// blocked (on a channel, time.Sleep or a sync.Cond; not on a mutex, a
// WaitGroup or real I/O). net.Pipe waits on channels, so the Mesh's reader,
// sender and accept goroutines all park durably, and settle and wedge are
// one synctest.Wait each.
func init() {
	meshFlavors = append(meshFlavors, meshFlavor{"bubble", func(t *testing.T, body meshBody) {
		synctest.Run(func() { body(t, meshEnv{nw: newPipeNet(), wait: synctest.Wait}) })
	}})
}
