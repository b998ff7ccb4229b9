package pool

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cycloid/p2p/codec"
)

// Handler serves one request frame: id is its correlation ID and body
// its payload, valid until the call returns. It runs on the
// connection's read loop, so it either replies before returning, or
// calls c.Add and replies later: from a goroutine that then calls
// c.Done, or with c.Relay from wherever the answer arrives.
type Handler func(c *ServerConn, id uint64, body []byte)

// Server is the serving end of CYCLOID-MUX/2: it checks and echoes a
// connection's preamble, reads its request frames and hands each to
// its Handler, whose replies ride one batching Writer per connection.
type Server struct {
	handler Handler
	timeout time.Duration // bounds the handshake and each stalled reply write
	stopped string        // the error a frame read after Close draws
	closing atomic.Bool
	mu      sync.Mutex
	conns   map[net.Conn]struct{} // for Close to wake
}

// NewServer returns a server whose frames h serves. timeout bounds a
// connection's handshake and each stalled reply write; a frame read
// after Close is answered with the error message stopped.
func NewServer(h Handler, timeout time.Duration, stopped string) *Server {
	return &Server{handler: h, timeout: timeout, stopped: stopped, conns: make(map[net.Conn]struct{})}
}

// Close makes every connection drain and end: frames read from now on
// draw an error frame, and connections idle between frames are woken.
// Each ServeConn returns once its handlers have replied.
func (s *Server) Close() {
	s.mu.Lock()
	s.closing.Store(true)
	for nc := range s.conns {
		_ = nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
}

// ServeConn serves one connection until the peer closes it, a protocol
// error ends it or the server closes, then closes it. The connection
// must open with codec.PreambleMuxV2, which the server echoes as the
// handshake ack before serving frames. Any other opening — a JSON
// request line, a retired preamble, stray bytes — is closed without
// writing a byte or handling anything.
//
// A reply is queued, and the read loop flushes the batch before it
// next waits for a request, so a burst of pipelined requests costs one
// reply write. A frame whose length is out of bounds or whose envelope
// is not a request's draws a connection-level error frame and ends the
// stream. The stream drains its off-loop handlers before it closes.
func (s *Server) ServeConn(nc net.Conn) {
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(s.timeout))
	br := bufio.NewReader(nc)
	// Byte by byte, so a foreign opening is dropped at its first wrong
	// byte instead of waiting for a full preamble's worth of input.
	for i := 0; i < codec.PreambleLen; i++ {
		if c, err := br.ReadByte(); err != nil || c != codec.PreambleMuxV2[i] {
			return
		}
	}
	if _, err := nc.Write([]byte(codec.PreambleMuxV2)); err != nil {
		return
	}
	// A stream idles between requests. Its handshake deadline is lifted
	// before Close can see it, so Close's wake-up is never erased.
	_ = nc.SetDeadline(time.Time{})
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return
	}
	s.conns[nc] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()

	// A failed write poisons the stream; closing the connection
	// unblocks the read loop, which ends it.
	c := &ServerConn{w: NewWriter(nc, s.timeout, func(error) { _ = nc.Close() })}
	defer func() {
		c.inflight.Wait()
		_ = c.w.Close()
	}()
	for {
		id, status, body, buf, err := readFrame(br)
		if err == ErrFrameTooLarge {
			c.Error(0, "frame exceeds size limit")
		}
		if err != nil {
			return
		}
		if id == 0 || status != 0 {
			codec.PutBuffer(buf)
			c.Error(0, "malformed envelope")
			return
		}
		if s.closing.Load() {
			c.Error(id, s.stopped)
		} else {
			s.handler(c, id, body)
		}
		codec.PutBuffer(buf)
		if !frameBuffered(br) {
			_ = c.w.Flush()
		}
	}
}

// ServerConn is a served connection as its Handler sees it.
type ServerConn struct {
	w        *Writer
	inflight sync.WaitGroup // handlers replying off the read loop
}

// Reply answers call id with a frame whose body fill appends straight
// into the connection's write batch; size is the body's expected
// length, 0 when unknown. A body that fails to encode or overruns
// DefaultMaxFrame is rolled back, and the call is answered with an
// error frame instead.
func (c *ServerConn) Reply(id uint64, size int, fill func([]byte) ([]byte, error)) {
	c.reply(id, size, flushLater, fill)
}

func (c *ServerConn) reply(id uint64, size int, mode flushMode, fill func([]byte) ([]byte, error)) {
	if c.w.writeFrame(id, statusPayload, size, mode, fill) != nil {
		c.errorFrame(id, "response exceeds frame limit", mode)
	}
}

// Relay is Reply for a call registered with Add, answered from outside
// the read loop — typically another connection's read loop, handing a
// forwarded call's answer back upstream — and ends the call's hold on
// the connection. It never blocks: the connection's flusher goroutine
// writes the frame, and the connection closes only after it has.
func (c *ServerConn) Relay(id uint64, size int, fill func([]byte) ([]byte, error)) {
	c.reply(id, size, flushAsync, fill)
	c.inflight.Done()
}

// Progress sends call id an interim progress frame: the handler, which
// registered the call with Add and has not answered it yet, is alive
// and still working on it. Like Relay, it never blocks.
func (c *ServerConn) Progress(id uint64) {
	_ = c.w.writeFrame(id, statusProgress, 0, flushAsync, func(buf []byte) ([]byte, error) { return buf, nil })
}

// Error answers call id with an error frame carrying msg. ID 0 is a
// connection-level error, written at once: framing is lost, and the
// peer must tear the stream down.
func (c *ServerConn) Error(id uint64, msg string) {
	mode := flushLater
	if id == 0 {
		mode = flushNow
	}
	c.errorFrame(id, msg, mode)
}

func (c *ServerConn) errorFrame(id uint64, msg string, mode flushMode) {
	_ = c.w.writeFrame(id, statusError, len(msg), mode, func(buf []byte) ([]byte, error) {
		return append(buf, msg...), nil
	})
}

// Add registers a handler that replies off the read loop: the
// connection stays open until its Done.
func (c *ServerConn) Add() { c.inflight.Add(1) }

// Done writes the reply of a handler registered with Add and ends its
// hold on the connection.
func (c *ServerConn) Done() {
	_ = c.w.Flush()
	c.inflight.Done()
}
