//go:build unix && !aix && !solaris

package drivers

import (
	"net"
	"syscall"
	"unsafe"
)

// tryWriter makes Post's one non-blocking writev; callback and iovec scratch
// live with the rail, so an attempt allocates nothing. A connection with no
// raw fd gets none. (aix and solaris lack a writev number in package syscall
// and take the hand-off fallback.)
type tryWriter struct {
	raw syscall.RawConn
	fn  func(fd uintptr) bool
	iov []syscall.Iovec
	n   int
}

func newTryWriter(c net.Conn) *tryWriter {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &tryWriter{raw: raw}
	w.fn = func(fd uintptr) bool {
		n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&w.iov[0])), uintptr(len(w.iov)))
		if w.n = int(n); errno != 0 {
			w.n = 0
		}
		return true // one attempt: never park the caller on the socket
	}
	return w
}

// write offers vec to the socket once and returns how many bytes it took.
// A full socket, an interrupted call and an error all take none: the owner
// writes the rest, and meets the error itself if it persists.
func (w *tryWriter) write(vec [][]byte) int {
	w.iov, w.n = w.iov[:0], 0
	for _, b := range vec {
		if len(b) > 0 {
			w.iov = append(w.iov, syscall.Iovec{Base: &b[0]})
			w.iov[len(w.iov)-1].SetLen(len(b))
		}
	}
	if n := len(w.iov); n > 0 && n <= 1024 { // IOV_MAX
		w.raw.Write(w.fn)
	}
	clear(w.iov) // drop payload refs; the backing is reused
	return w.n
}
