package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// The HTTP/1.1 loop Start runs (conn.go), driven over raw TCP; every reply is
// read with http.ReadResponse.

// rawConn dials addr; the connection is closed with the test.
func rawConn(t testing.TB, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

func send(t testing.TB, c net.Conn, raw string) {
	t.Helper()
	if _, err := io.WriteString(c, raw); err != nil {
		t.Fatal(err)
	}
}

// readReply reads one response to a request of the given method, body
// included.
func readReply(t testing.TB, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading a response body: %v", err)
	}
	return resp, string(b)
}

// closed reports whether the server closed the connection: a read sees EOF
// (or a reset) rather than data or a timeout.
func closed(br *bufio.Reader) bool {
	_, err := br.ReadByte()
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

func queryRequest(x []int, extra string) string {
	body := csvBody(x)
	return fmt.Sprintf("POST /v1/queryprob HTTP/1.1\r\nHost: t\r\n%sContent-Length: %d\r\n\r\n%s", extra, len(body), body)
}

// TestConnKeepAliveAndPipelining: one connection carries a request, then two
// pipelined in one write, answered in order, then one more.
func TestConnKeepAliveAndPipelining(t *testing.T) {
	model, tr := newAlarmTracker(t, 1000, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr)})
	c, br := rawConn(t, srv.Addr())
	x := make([]int, model.Network().Len())

	send(t, c, queryRequest(x, ""))
	resp, body := readReply(t, br, "POST")
	if resp.StatusCode != http.StatusOK || resp.Close || resp.Header.Get("Date") == "" ||
		resp.Header.Get("Content-Type") != "application/json" || resp.ContentLength != int64(len(body)) {
		t.Fatalf("first reply: %d close=%v header %v body %q", resp.StatusCode, resp.Close, resp.Header, body)
	}
	want := resultP(t, []byte(body))

	send(t, c, queryRequest(x, "")+"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
	if resp, body := readReply(t, br, "POST"); resp.StatusCode != http.StatusOK || resultP(t, []byte(body)) != want {
		t.Fatalf("first pipelined reply: %d %q", resp.StatusCode, body)
	}
	if resp, body := readReply(t, br, "GET"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("second pipelined reply: %d %q", resp.StatusCode, body)
	}
	send(t, c, queryRequest(x, ""))
	if resp, _ := readReply(t, br, "POST"); resp.StatusCode != http.StatusOK {
		t.Fatalf("reply on the kept connection: %d", resp.StatusCode)
	}
}

// TestConnCloses: "Connection: close" and an HTTP/1.0 request without
// keep-alive are answered, then the connection is closed; an HTTP/1.0
// keep-alive request keeps it.
func TestConnCloses(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr)})
	for _, tc := range []struct {
		name, req string
		keep      bool
	}{
		{"connection-close", "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", false},
		{"http-1.0", "GET /healthz HTTP/1.0\r\n\r\n", false},
		{"http-1.0-keep-alive", "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, br := rawConn(t, srv.Addr())
			send(t, c, tc.req)
			resp, body := readReply(t, br, "GET")
			if resp.StatusCode != http.StatusOK || body != "ok\n" || resp.Close == tc.keep {
				t.Fatalf("reply %d %q close=%v, want keep=%v", resp.StatusCode, body, resp.Close, tc.keep)
			}
			if tc.keep {
				c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
			}
			if got := closed(br); got == tc.keep {
				t.Fatalf("connection closed = %v after the reply, want %v", got, !tc.keep)
			}
		})
	}
}

// TestConnBodies: a chunked body is read like a declared one, and one over
// MaxBodyBytes is answered 413 with the connection kept once the rest is
// discarded.
func TestConnBodies(t *testing.T) {
	model, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr), MaxBodyBytes: 1 << 10})
	c, br := rawConn(t, srv.Addr())
	body := csvBody(make([]int, model.Network().Len()))
	chunked := func(body string) string {
		return fmt.Sprintf("POST /v1/queryprob HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	}
	send(t, c, chunked(body))
	if resp, b := readReply(t, br, "POST"); resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked body: %d %q", resp.StatusCode, b)
	}
	send(t, c, chunked(strings.Repeat("0,", 1<<10)))
	if resp, b := readReply(t, br, "POST"); resp.StatusCode != http.StatusRequestEntityTooLarge || resp.Close {
		t.Fatalf("chunked body over the limit: %d close=%v %q", resp.StatusCode, resp.Close, b)
	}
	send(t, c, chunked(body))
	if resp, b := readReply(t, br, "POST"); resp.StatusCode != http.StatusOK {
		t.Fatalf("after the 413: %d %q", resp.StatusCode, b)
	}
}

// TestConnExpectContinue: a client that waits for "100 Continue" gets it
// when the handler reads the body, then the answer.
func TestConnExpectContinue(t *testing.T) {
	model, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr)})
	c, br := rawConn(t, srv.Addr())
	body := csvBody(make([]int, model.Network().Len()))
	send(t, c, fmt.Sprintf("POST /v1/queryprob HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n", len(body)))
	if resp, _ := readReply(t, br, "POST"); resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim reply %d, want 100", resp.StatusCode)
	}
	send(t, c, body)
	if resp, b := readReply(t, br, "POST"); resp.StatusCode != http.StatusOK {
		t.Fatalf("reply after the body: %d %q", resp.StatusCode, b)
	}
}

// TestConnRefusals: a header block over http.DefaultMaxHeaderBytes is 431
// and a malformed request line 400, each followed by a close; HEAD /healthz
// has GET's headers and no body.
func TestConnRefusals(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr)})

	c, br := rawConn(t, srv.Addr())
	go io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Big: "+strings.Repeat("a", http.DefaultMaxHeaderBytes+8192)+"\r\n\r\n")
	if resp, _ := readReply(t, br, "GET"); resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge || !resp.Close {
		t.Fatalf("oversized header block: %d close=%v", resp.StatusCode, resp.Close)
	}
	if !closed(br) {
		t.Fatal("connection open after 431")
	}

	c, br = rawConn(t, srv.Addr())
	send(t, c, "GARBAGE\r\n\r\n")
	if resp, _ := readReply(t, br, "GET"); resp.StatusCode != http.StatusBadRequest || !resp.Close {
		t.Fatalf("malformed request line: %d close=%v", resp.StatusCode, resp.Close)
	}
	if !closed(br) {
		t.Fatal("connection open after 400")
	}

	c, br = rawConn(t, srv.Addr())
	send(t, c, "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
	if resp, body := readReply(t, br, "HEAD"); resp.StatusCode != http.StatusOK || resp.ContentLength != 3 ||
		resp.Header.Get("Content-Type") == "" || body != "" {
		t.Fatalf("HEAD /healthz: %d length %d header %v body %q", resp.StatusCode, resp.ContentLength, resp.Header, body)
	}
	if resp, body := readReply(t, br, "GET"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("GET after HEAD: %d %q", resp.StatusCode, body)
	}
}

// TestConnTimeouts: IdleTimeout closes a kept connection the client leaves
// silent, and ReadHeaderTimeout one that never completes its header block.
func TestConnTimeouts(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	const d = 100 * time.Millisecond
	srv := startServer(t, Config{Source: NewTrackerSource(tr), IdleTimeout: d, ReadHeaderTimeout: d})
	for _, tc := range []struct{ name, req string }{
		{"idle", "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"},
		{"read-header", "GET /healthz HTTP/1.1\r\nHost: t\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now() // before the dial: the header timeout starts at the accept
			c, br := rawConn(t, srv.Addr())
			send(t, c, tc.req)
			if tc.name == "idle" {
				readReply(t, br, "GET")
			}
			if !closed(br) {
				t.Fatal("connection not closed")
			}
			if waited := time.Since(start); waited < d || waited > 5*time.Second {
				t.Fatalf("closed after %v, want about %v", waited, d)
			}
		})
	}
}

// TestConnHangUpWhileQueued: a client that disconnects while its request is
// queued at a full gate ends the wait at once — counted in
// deadline_exceeded — instead of holding a queue slot for RequestTimeout.
func TestConnHangUpWhileQueued(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	src := &gatedSource{
		ModelSource: NewTrackerSource(tr),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	// A RequestTimeout past waitFor's bound: only the hang-up can end the wait.
	srv := startServer(t, Config{Source: src, MaxSnapshotAge: -1, MaxConcurrent: 1, MaxQueue: 4, RequestTimeout: time.Minute})
	x := make([]int, tr.Network().Len())

	aDone := make(chan int, 1)
	go func() { // A: admitted, pinned inside the source
		code, _ := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
		aDone <- code
	}()
	<-src.entered
	c, _ := rawConn(t, srv.Addr())
	send(t, c, queryRequest(x, ""))
	waitFor(t, "the request queued at the gate", func() bool { return srv.Stats().Admission.Queued == 1 })
	c.Close()
	waitFor(t, "the hang-up counted", func() bool {
		st := srv.Stats().Admission
		return st.DeadlineExceeded == 1 && st.Queued == 0
	})
	close(src.release)
	if code := <-aDone; code != http.StatusOK {
		t.Errorf("pinned request finished with %d", code)
	}
}

// FuzzServeConn writes arbitrary bytes to a served connection and half-closes
// it: the server must not panic or hang past its timeouts, and everything it
// writes back must parse as a sequence of HTTP/1.1 responses, one per request
// it read (plus "100 Continue" interim ones).
func FuzzServeConn(f *testing.F) {
	_, tr := newAlarmTracker(f, 500, 0)
	srv := startServer(f, Config{
		Source: NewTrackerSource(tr), MaxBodyBytes: 1 << 12,
		ReadHeaderTimeout: time.Second, ReadTimeout: 2 * time.Second, WriteTimeout: 2 * time.Second, IdleTimeout: time.Second,
	})
	x := make([]int, tr.Network().Len())
	for _, seed := range []string{
		queryRequest(x, ""),
		queryRequest(x, "") + queryRequest(x, "Connection: close\r\n"),
		queryRequest(x, "Expect: 100-continue\r\n"),
		"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /statsz HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /v1/queryprob HTTP/1.0\r\n\r\n",
		"POST /v1/classify HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n5\r\n{\"x\":\r\n0\r\n\r\n",
		"POST /v1/marginal HTTP/1.1\r\nHost: t\r\nContent-Length: 99\r\n\r\n{}",
		"GET /v1/model HTTP/1.1\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nExpect: teapot\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		go func() {
			c.Write(data)
			c.(*net.TCPConn).CloseWrite()
		}()
		out, err := io.ReadAll(c)
		if err != nil {
			t.Fatalf("reading the replies: %v (a hang past the server's timeouts?)", err)
		}
		// Match each reply to the method of the request it answers.
		reqs := bufio.NewReader(bytes.NewReader(data))
		br := bufio.NewReader(bytes.NewReader(out))
		method := func() string {
			req, err := http.ReadRequest(reqs)
			if err != nil {
				return "GET"
			}
			io.Copy(io.Discard, req.Body)
			return req.Method
		}
		m := method()
		for n := 0; ; n++ {
			if _, err := br.Peek(1); err == io.EOF {
				return
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: m})
			if err != nil {
				t.Fatalf("reply %d of %q does not parse: %v\n%q", n, data, err, out)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("reply %d body of %q: %v\n%q", n, data, err, out)
			}
			if resp.StatusCode != http.StatusContinue {
				m = method()
			}
		}
	})
}

// TestConnUnsentBody: a request that declares a body over MaxBodyBytes and
// does not send it is answered 413 at once, and the connection closed,
// instead of once the client gives up waiting.
func TestConnUnsentBody(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr), MaxBodyBytes: 4 << 10})
	c, br := rawConn(t, srv.Addr())
	c.SetDeadline(time.Now().Add(time.Second))
	send(t, c, "POST /v1/queryprob HTTP/1.1\r\nHost: t\r\nContent-Length: 9000\r\n\r\n")
	if resp, b := readReply(t, br, "POST"); resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Fatalf("reply %d close=%v %q, want 413 and a close", resp.StatusCode, resp.Close, b)
	}
}
