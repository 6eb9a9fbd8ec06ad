package serve

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
)

// FuzzReadRequest holds the loop's request parser (request.go) to
// http.ReadRequest: fed the same bytes, either both refuse the next request
// or both read it with the same method, target, version, host, framing and
// body, and leave the same bytes for the request after it — what keeps a
// request from being smuggled past the parser in another's body.
//
// Two deliberate differences, neither seen on the wire:
//   - over the limit: readRequest refuses a header block over
//     headerReadLimit (the loop answers 431), which http.ReadRequest reads
//     whole; inputs that long are skipped.
//   - not HTTP/1.x: the loop refuses such a request (400) before it looks
//     at its body or keeps its connection, so only the method and version
//     are compared; readRequest does not copy net/http's special cases
//     there (Close for HTTP/0.x, the HTTP/2 preface's framing).
func FuzzReadRequest(f *testing.F) {
	x := make([]int, 37) // an alarm assignment, as FuzzServeConn sends
	post := func(header, body string) string {
		return "POST /v1/queryprob HTTP/1.1\r\nHost: t\r\n" + header + "\r\n" + body
	}
	for _, seed := range []string{
		// FuzzServeConn's seeds.
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
		// Framing a smuggler would try.
		post("Content-Length: 5\r\nTransfer-Encoding: chunked\r\n", "0\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
		post("Content-Length: 1\r\nContent-Length: 2\r\n", "ab"),
		post("Content-Length: 2\r\ncontent-length:  2 \r\n", "ab"),
		post("Content-Length: +1\r\n", "a"),
		post("Content-Length:  1 ,1\r\n", "a"),
		post("Content-Length : 1\r\n", "a"),
		post("Content-Length: 1\r\n \r\n", "a"),
		post("Content-Length: 99999999999999999999\r\n", "a"),
		post("Transfer-Encoding: chunked, gzip\r\n", "0\r\n\r\n"),
		post("Transfer-Encoding: gzip, chunked\r\n", "0\r\n\r\n"),
		post("Transfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n", "0\r\n\r\n"),
		post("Transfer-Encoding: chunked\r\n \r\n", "0\r\n\r\n"),
		post("Transfer-Encoding: chunked\r\nTrailer: Content-Length\r\n", "0\r\n\r\n"),
		post("Transfer-Encoding: chunked\r\n", "3\r\nabc\r\n0\r\nX-T: 1\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
		post("Transfer-Encoding: chunked\r\n", "0\r\nX-T: 1\n\n"),
		"POST / HTTP/1.0\r\nTransfer-Encoding: chunked\r\nContent-Length: 1\r\n\r\nab",
		"POST / HTTP/0.0\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"PRI * HTTP/2.0\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		// Header lines.
		"GET / HTTP/1.1\r\nHost: t\r\nX-A: 1\r\n 2\r\n\tend \r\n\r\n",
		"GET / HTTP/1.1\r\n Host: t\r\n\r\n",
		"GET / HTTP/1.1\nHost: t\n\n",
		"GET / HTTP/1.1\r\nHost: t\r\nX: a\x00b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nX: a\x7fb\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nX: a\rb\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\n: empty\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nX-\x80: 1\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nno colon\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nX-Long: " + strings.Repeat("a", 5000) + "\r\n\r\n",
		"GET /" + strings.Repeat("a", 5000) + " HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nConnection: Keep-Alive, close\r\n\r\n",
		"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\nExpect: 100-Continue\r\nExpect: x\r\nContent-Length: 0\r\n\r\n",
		// Request lines and targets.
		"GET http://example.com/v1/queryprob HTTP/1.1\r\nHost: other\r\n\r\n",
		"GET /v1/query%70rob?a=1 HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /a#b?c HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET /a\x7f HTTP/1.1\r\nHost: t\r\n\r\n",
		"GET a HTTP/1.1\r\nHost: t\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: t\r\n\r\n",
		"CONNECT example.com:443 HTTP/1.1\r\n\r\n",
		"CONNECT  HTTP/1.1\r\n\r\n",
		"G(T / HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1 x\r\n\r\n",
		"GET / HTTP/9.9\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: t\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > headerReadLimit {
			t.Skip("over the loop's header limit")
		}
		wantR, gotR := bytes.NewReader(data), bytes.NewReader(data)
		want, got := bufio.NewReader(wantR), &reqReader{br: bufio.NewReader(gotR), header: make(http.Header)}
		for n := 0; ; n++ {
			w, werr := http.ReadRequest(want)
			g, gerr := got.read()
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("request %d of %q: http.ReadRequest: %v, readRequest: %v", n, data, werr, gerr)
			}
			if werr != nil {
				return
			}
			if w.Method != g.Method || w.Proto != g.Proto {
				t.Fatalf("request %d of %q: %s %s, readRequest %s %s", n, data, w.Method, w.Proto, g.Method, g.Proto)
			}
			if w.ProtoMajor != 1 {
				return // not HTTP/1.x
			}
			type framing struct {
				Method, Path, RawQuery, Proto, Host string
				Major, Minor                        int
				ContentLength                       int64
				Close, Chunked, Expect              bool
			}
			wf := framing{w.Method, w.URL.Path, w.URL.RawQuery, w.Proto, w.Host, w.ProtoMajor, w.ProtoMinor,
				w.ContentLength, w.Close, len(w.TransferEncoding) > 0, strings.EqualFold(w.Header.Get("Expect"), "100-continue")}
			gf := framing{g.Method, g.URL.Path, g.URL.RawQuery, g.Proto, g.Host, g.ProtoMajor, g.ProtoMinor,
				g.ContentLength, g.Close, g.ContentLength < 0, got.expect}
			if wf != gf {
				t.Fatalf("request %d of %q:\nhttp.ReadRequest %+v\nreadRequest      %+v", n, data, wf, gf)
			}
			wb, werr := io.ReadAll(w.Body)
			gb, gerr := io.ReadAll(g.Body)
			if !bytes.Equal(wb, gb) || (werr == nil) != (gerr == nil) {
				t.Fatalf("request %d of %q: body %q (%v), readRequest %q (%v)", n, data, wb, werr, gb, gerr)
			}
			if werr != nil {
				return
			}
			if wl, gl := want.Buffered()+wantR.Len(), got.br.Buffered()+gotR.Len(); wl != gl {
				t.Fatalf("request %d of %q: http.ReadRequest leaves %d bytes, readRequest %d", n, data, wl, gl)
			}
		}
	})
}
