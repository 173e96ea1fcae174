//go:build !unix || aix || solaris

package drivers

import "net"

// tryWriter is the fallback where no non-blocking writev is available: a
// rail has none, so the owner writes every frame.
type tryWriter struct{}

func newTryWriter(net.Conn) *tryWriter { return nil }

func (*tryWriter) write([][]byte) int { return 0 }
