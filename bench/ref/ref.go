// Package ref is the benchmark's ruler: the same topology as the engine's
// mesh — one TCP connection per ordered node pair over the host's loopback
// interface — driven as a bare socket loop. One vectored write per message
// (a 4-byte length prefix and the payload, by reference), one fresh buffer
// per message on the reading side, nothing else.
//
// It imports only the standard library, so no change to the repository can
// move it: a ratio of the engine to this loop, measured in interleaved
// segments, cancels the machine and leaves what the engine costs.
package ref

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// maxMessage bounds a length prefix, so a corrupt stream ends the reader
// instead of demanding an absurd allocation.
const maxMessage = 64 << 20

// DeliverFunc receives one message read off the connection src→dst (or, in
// echo mode, one reply read back on that connection: then src is the
// replying node). It runs on the connection's reader goroutine and owns
// payload.
type DeliverFunc func(src, dst int, payload []byte)

// conn is the writing side of one connection. A connection has exactly one
// writer at a time (the generator on the dialing side, the echoing reader on
// the accepting side), so the gather scratch needs no lock.
type conn struct {
	c    net.Conn
	hdr  [4]byte
	vec  [2][]byte
	bufs net.Buffers
}

func (c *conn) write(payload []byte) error {
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(payload)))
	c.vec[0], c.vec[1] = c.hdr[:], payload
	c.bufs = c.vec[:]
	_, err := c.bufs.WriteTo(c.c)
	c.vec[1] = nil
	return err
}

// Mesh is n nodes wired all-to-all with one connection per ordered pair.
type Mesh struct {
	n       int
	echo    bool
	deliver DeliverFunc
	lns     []net.Listener
	out     [][]*conn // out[src][dst]

	mu     sync.Mutex
	closed bool
	conns  []net.Conn
	wg     sync.WaitGroup
}

// NewMesh listens on n loopback ports and dials every ordered pair. With
// echo set, the node that reads a message writes it straight back on the
// same connection and the dialing side delivers the reply — the
// request-reply form of the same loop.
func NewMesh(n int, echo bool, deliver DeliverFunc) (*Mesh, error) {
	m := &Mesh{n: n, echo: echo, deliver: deliver}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("ref: listen: %w", err)
		}
		m.lns = append(m.lns, ln)
		m.wg.Add(1)
		go m.accept(i, ln)
	}
	m.out = make([][]*conn, n)
	for src := 0; src < n; src++ {
		m.out[src] = make([]*conn, n)
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			c, err := net.Dial("tcp", m.lns[dst].Addr().String())
			if err != nil {
				m.Close()
				return nil, fmt.Errorf("ref: dial %d->%d: %w", src, dst, err)
			}
			m.track(c)
			var hello [4]byte
			binary.BigEndian.PutUint32(hello[:], uint32(src))
			if _, err := c.Write(hello[:]); err != nil {
				m.Close()
				return nil, fmt.Errorf("ref: hello %d->%d: %w", src, dst, err)
			}
			m.out[src][dst] = &conn{c: c}
			if echo {
				m.wg.Add(1)
				go m.read(c, dst, src, nil)
			}
		}
	}
	return m, nil
}

// track registers a connection for Close; it reports false when the mesh
// is already closing (the connection is then closed here).
func (m *Mesh) track(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		c.Close()
		return false
	}
	m.conns = append(m.conns, c)
	return true
}

func (m *Mesh) accept(node int, ln net.Listener) {
	defer m.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !m.track(c) {
			return
		}
		m.wg.Add(1)
		go func() {
			var hello [4]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				m.wg.Done()
				return
			}
			src := int(binary.BigEndian.Uint32(hello[:]))
			var back *conn
			if m.echo {
				back = &conn{c: c}
			}
			m.read(c, src, node, back)
		}()
	}
}

// read drains one connection: messages written by `from` arrive at `at`.
// When back is set every message is written back after delivery.
func (m *Mesh) read(c net.Conn, from, at int, back *conn) {
	defer m.wg.Done()
	br := bufio.NewReader(c)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxMessage {
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		m.deliver(from, at, buf)
		if back != nil {
			if err := back.write(buf); err != nil {
				return
			}
		}
	}
}

// Send writes one message on the connection src→dst. It blocks while the
// socket buffer is full: a bare socket has no other queue.
func (m *Mesh) Send(src, dst int, payload []byte) error {
	return m.out[src][dst].write(payload)
}

// Close closes every listener and connection and waits for the readers.
func (m *Mesh) Close() {
	m.mu.Lock()
	m.closed = true
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for _, ln := range m.lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	m.wg.Wait()
}
