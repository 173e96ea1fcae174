package drivers

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// The Mesh state-machine tests run one body per environment: the network
// its nodes listen and dial on, and how the body waits for the transport.
// Every body runs over kernel TCP and over pipeNet on the wall clock, where
// a wait polls; built with GOEXPERIMENT=synctest it runs once more over
// pipeNet inside a testing/synctest bubble (pipenet_synctest_test.go), where
// the clock is fake and a wait is a point in the schedule.

// meshEnv is one environment.
type meshEnv struct {
	nw Network
	// wait returns once every other goroutine of the bubble is durably
	// blocked (synctest.Wait); nil on the wall clock.
	wait func()
}

// meshBody is a test body that runs in every environment.
type meshBody = func(t *testing.T, e meshEnv)

// meshFlavor builds an environment and runs a body in it.
type meshFlavor struct {
	name string // the subtest's
	run  func(t *testing.T, body meshBody)
}

// meshFlavors are the flavors eachNet runs a body in.
var meshFlavors = []meshFlavor{
	{"tcp", func(t *testing.T, body meshBody) { body(t, meshEnv{nw: TCP}) }},
	{"pipe", func(t *testing.T, body meshBody) { body(t, meshEnv{nw: newPipeNet()}) }},
}

// eachNet runs body once per flavor, each as a subtest. A body closes
// every node it built before it returns, on failure too (defer): a bubble
// ends only when all of its goroutines have.
func eachNet(t *testing.T, body meshBody) {
	for _, env := range meshFlavors {
		t.Run(env.name, func(t *testing.T) { env.run(t, body) })
	}
}

// settle returns once cond holds, or fails the test naming what it waited
// for. On the wall clock it polls; in a bubble it lets every goroutine run
// until it blocks, then asserts.
func (e meshEnv) settle(t *testing.T, what string, cond func() bool) {
	t.Helper()
	if e.wait == nil {
		waitFor(t, 10*time.Second, what, cond)
		return
	}
	e.wait()
	if !cond() {
		t.Fatalf("%s: still not so once every goroutine blocked", what)
	}
}

// wedge lets a write toward a peer whose receive handler is blocked stall
// against it: a bubble waits until it has, the wall clock gives it 50 ms.
func (e meshEnv) wedge() {
	if e.wait != nil {
		e.wait()
		return
	}
	time.Sleep(50 * time.Millisecond)
}

// pipeNet is an in-memory Network over net.Pipe. Listen names a fresh
// listener whatever the address; Dial hands one end of a new pipe to the
// named listener's Accept. A pipe has no buffer: a write returns once the
// peer has read it, so a peer that stops reading stalls its writer at once.
// Every wait is on a channel, so the Mesh's goroutines block durably on it.
type pipeNet struct {
	mu  sync.Mutex
	lns map[string]*pipeListener
}

func newPipeNet() *pipeNet { return &pipeNet{lns: map[string]*pipeListener{}} }

func (n *pipeNet) Listen(string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := &pipeListener{
		addr:  pipeAddr(fmt.Sprintf("pipe:%d", len(n.lns))),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	n.lns[string(l.addr)] = l
	return l, nil
}

func (n *pipeNet) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.lns[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("pipe: dial %s: no listener", addr)
	}
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("pipe: dial %s: %w", addr, net.ErrClosed)
	}
}

type pipeListener struct {
	addr  pipeAddr
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }

type pipeAddr string

func (pipeAddr) Network() string  { return "pipe" }
func (a pipeAddr) String() string { return string(a) }
