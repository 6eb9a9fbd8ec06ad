package serve

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// The HTTP/1.1 keep-alive loop behind Start. One goroutine per connection
// parses each request in place (request.go) into one http.Request reused
// from request to request, runs the server's handler into the connection's
// buffered ResponseWriter (the conn itself, its buffers reused too) and
// writes status line, Date, Content-Length, the handler's headers and the
// body in one write. It starts no goroutine per request: the connection is
// read in the background only while a request waits at the gate or the
// refresh slot (conn.watch), to see the client hang up.

const (
	// headerReadLimit is how long a request's header block may be before it
	// is refused with 431: http.DefaultMaxHeaderBytes plus the 4 KiB
	// http.Server allows the buffered reader to read ahead.
	headerReadLimit = http.DefaultMaxHeaderBytes + 4096
	// maxDrain is how much of a chunked body the handler left unread is
	// discarded to keep the connection (http.Server's bound); a longer rest
	// closes it.
	maxDrain = 256 << 10
	// lingerClose is how long a connection closed with input unread keeps
	// reading after its last reply, so the client's kernel does not discard
	// the reply on a reset (http.Server's rstAvoidanceDelay).
	lingerClose = 500 * time.Millisecond
)

var aLongTimeAgo = time.Unix(1, 0)

// conn is one accepted connection and the ResponseWriter of its requests.
// Only its goroutine reads and writes rwc and in.br, except while a watch
// reads ahead into in.br.
type conn struct {
	in       reqReader // the request being served
	s        *Server
	rwc      net.Conn
	readDL   time.Time // the read deadline the loop set last
	stopping atomic.Bool
	idle     bool // waiting for a request; guarded by s.mu
	// The reply being buffered, and the bytes of the last one written.
	header    http.Header
	code      int
	body, out []byte
	scratch   [4096]byte
	date      []byte // the Date of the second dateAt (unix seconds)
	dateAt    int64
}

func (c *conn) Header() http.Header { return c.header }

func (c *conn) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

func (c *conn) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.body = append(c.body, p...)
	return len(p), nil
}

// readUntil sets the read deadline d after t0, or none for d ≤ 0.
func (c *conn) readUntil(t0 time.Time, d time.Duration) {
	c.readDL = time.Time{}
	if d > 0 {
		c.readDL = t0.Add(d)
	}
	c.rwc.SetReadDeadline(c.readDL)
}

// watch reads the connection into br while a request waits, until br is
// full, and calls hangup when the client closes it; a body or a pipelined
// request that arrives meanwhile stays in br for the loop. stop ends the read
// and restores the read deadline.
func (c *conn) watch(hangup func()) (stop func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := c.in.br.Buffered() + 1; n <= c.in.br.Size(); n = c.in.br.Buffered() + 1 {
			if _, err := c.in.br.Peek(n); err != nil {
				if !c.stopping.Load() {
					hangup()
				}
				return
			}
		}
	}()
	return func() {
		c.stopping.Store(true)
		c.rwc.SetReadDeadline(aLongTimeAgo)
		<-done
		c.stopping.Store(false)
		c.rwc.SetReadDeadline(c.readDL)
	}
}

// accept serves every connection ln accepts until Shutdown closes ln.
func (s *Server) accept(ln net.Listener) {
	defer close(s.served)
	for {
		rwc, err := ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil { // out of descriptors, say: back off as http.Server does
			time.Sleep(5 * time.Millisecond)
			continue
		}
		c := &conn{s: s, rwc: rwc, idle: true, header: make(http.Header)}
		c.in = reqReader{br: bufio.NewReader(rwc), paths: s.paths, header: make(http.Header)}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// setIdle marks c waiting for a request (or not), and reports false when
// Shutdown has closed it (it was idle) or is closing it.
func (s *Server) setIdle(c *conn, idle bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing && (idle || c.idle) {
		return false
	}
	c.idle = idle
	return true
}

// closeConns closes the idle connections, or all of them, and reports
// whether none is left; from then on a connection closes after its reply,
// and the last one to go closes s.drained.
func (s *Server) closeConns(all bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closing = true
	for c := range s.conns {
		if all || c.idle {
			c.rwc.Close()
		}
	}
	return len(s.conns) == 0
}

func (c *conn) serve() {
	s := c.s
	defer func() {
		c.rwc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		if s.closing && len(s.conns) == 0 {
			close(s.drained)
		}
		s.mu.Unlock()
	}()
	for first := true; ; first = false {
		// Wait for the request's first byte: on a new connection under the
		// header timeout, which then goes on, on a kept one under the idle
		// timeout.
		t0 := time.Now()
		wait := s.idleTimeout
		if first {
			wait = s.readHeaderTimeout
		}
		c.readUntil(t0, wait)
		if _, err := c.in.br.Peek(1); err != nil || !s.setIdle(c, false) {
			return
		}
		if !first {
			t0 = time.Now()
			c.readUntil(t0, s.readHeaderTimeout)
		}
		req, err := c.in.read()
		if s.writeTimeout > 0 {
			c.rwc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		switch {
		case err == errHeaderTooLarge:
			c.fail(unparsed, http.StatusRequestHeaderFieldsTooLarge)
			return
		case err == io.EOF || err != nil && errors.As(err, new(*net.OpError)):
			return // the client went away or timed out: no one to answer
		case err != nil:
			c.fail(unparsed, http.StatusBadRequest)
			return
		case req.ProtoMajor != 1 || req.ProtoMinor > 0 && req.Host == "":
			c.fail(req, http.StatusBadRequest)
			return
		}
		if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 && c.in.expect {
			io.WriteString(c.rwc, "HTTP/1.1 100 Continue\r\n\r\n") // a failed write fails the reply too
		}
		c.readUntil(t0, s.readTimeout)
		// Start a goroutine at most once a millisecond of serving. The loop
		// starts none per request, and a connection that keeps one processor
		// busy has the runtime poll the network without running timers due
		// on an idle one: a goroutine sleeping there wakes up to a sysmon
		// period (10 ms) late, unless a goroutine start hands the idle
		// processor work (and its timers).
		if t := t0.UnixNano(); t-s.woke.Load() > int64(time.Millisecond) {
			s.woke.Store(t)
			go func() {}()
		}
		if c.run(req) {
			return // the handler aborted: close without a reply
		}
		// The connection is kept only if the client asked for it and what
		// the handler left of the body is gone.
		drained := c.in.body.discard(c.scratch[:])
		keep := drained && !req.Close && !s.draining.Load() && c.header.Get("Connection") != "close"
		if !c.reply(req, keep) {
			if !drained {
				c.linger()
			}
			return
		}
		if !s.setIdle(c, true) {
			return
		}
	}
}

// run calls the handler and reports whether it aborted the reply with
// http.ErrAbortHandler, the one panic withRecovery lets through.
func (c *conn) run(req *http.Request) (aborted bool) {
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				panic(v)
			}
			aborted = true
		}
	}()
	clear(c.header)
	c.code, c.body = 0, c.body[:0]
	c.s.handler.ServeHTTP(c, req)
	return false
}

// reply writes the buffered reply in one write — the body not for HEAD — and
// reports whether the connection stays open. Header values come from this
// package's handlers and net/http's helpers, none with a line break.
func (c *conn) reply(req *http.Request, keep bool) bool {
	code := c.code
	if code == 0 {
		code = http.StatusOK
	}
	b := strconv.AppendInt(append(c.out[:0], "HTTP/1.1 "...), int64(code), 10)
	b = append(append(b, ' '), http.StatusText(code)...)
	if now := time.Now(); now.Unix() != c.dateAt {
		c.date, c.dateAt = now.UTC().AppendFormat(c.date[:0], http.TimeFormat), now.Unix()
	}
	b = append(append(b, "\r\nDate: "...), c.date...)
	b = strconv.AppendInt(append(b, "\r\nContent-Length: "...), int64(len(c.body)), 10)
	for k, vs := range c.header {
		if k != "Connection" && k != "Content-Length" && k != "Date" && k != "Transfer-Encoding" {
			for _, v := range vs {
				b = append(append(append(append(b, "\r\n"...), k...), ": "...), v...)
			}
		}
	}
	switch {
	case !keep:
		b = append(b, "\r\nConnection: close"...)
	case req.ProtoMinor == 0:
		b = append(b, "\r\nConnection: keep-alive"...)
	}
	b = append(b, "\r\n\r\n"...)
	if req.Method != http.MethodHead {
		b = append(b, c.body...)
	}
	c.out = b
	_, err := c.rwc.Write(b)
	return keep && err == nil
}

// unparsed stands in for a request that did not parse when fail answers it.
var unparsed = &http.Request{Method: http.MethodGet, ProtoMinor: 1}

// fail answers a request the loop refuses before any handler runs, and
// lingers before the close.
func (c *conn) fail(req *http.Request, code int) {
	clear(c.header)
	c.header.Set("Content-Type", "text/plain; charset=utf-8")
	c.code, c.body = code, append(append(c.body[:0], http.StatusText(code)...), '\n')
	c.reply(req, false)
	c.linger()
}

// linger half-closes the connection and reads what the client still sends
// for at most lingerClose, so the reply is not lost to a reset.
func (c *conn) linger() {
	if tcp, ok := c.rwc.(*net.TCPConn); ok {
		tcp.CloseWrite()
	}
	c.readUntil(time.Now(), lingerClose)
	io.Copy(io.Discard, c.rwc)
}
