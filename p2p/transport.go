package p2p

import (
	"net"
	"time"
)

// Transport abstracts how nodes reach each other, so the same overlay
// code runs over real TCP sockets in production and over the
// deterministic in-memory fabric of p2p/memnet in tests. A Transport is
// per-node: implementations may use the identity of the dialing node to
// attribute traffic to a link (memnet does, for per-link fault
// injection).
type Transport interface {
	// Listen binds a listener. addr follows the implementation's
	// address syntax; ":0"-style wildcard ports must yield a unique,
	// dialable address via the listener's Addr().
	Listen(addr string) (net.Listener, error)
	// Dial opens a connection to a listener's address, failing after
	// at most timeout. A dial failure is the live-network equivalent
	// of the paper's timeout metric.
	Dial(addr string, timeout time.Duration) (net.Conn, error)
}

// TCP is the default Transport: real TCP sockets via the net package.
var TCP Transport = tcpTransport{}

// tcpReadBuffer is the receive buffer of every TCP connection, both
// ends. A pooled connection can carry a 64 KiB blob chunk frame with no
// traffic flowing back to piggyback the receiver's window update — a
// hinted fetch's reply is the whole exchange — and at the kernel's
// initial receive window (about 64 KiB) such a frame waits out the
// 40 ms delayed-ACK timer before its tail may be sent. A fixed buffer
// of a frame or more lets it through at once; the kernel caps the
// request at its configured maximum (net.core.rmem_max on Linux).
const tcpReadBuffer = 1 << 20

type tcpTransport struct{}

func (tcpTransport) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{ln.(*net.TCPListener)}, nil
}

func (tcpTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	// Best effort: a refused size costs only the tail latency above.
	_ = c.(*net.TCPConn).SetReadBuffer(tcpReadBuffer)
	return c, nil
}

// tcpListener sizes the receive buffer of every accepted connection.
type tcpListener struct{ *net.TCPListener }

func (l tcpListener) Accept() (net.Conn, error) {
	c, err := l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	_ = c.SetReadBuffer(tcpReadBuffer) // best effort, as in Dial
	return c, nil
}
