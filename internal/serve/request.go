package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"
)

// The request parser of Start's loop. It reads what http.ReadRequest reads
// and refuses what it refuses (FuzzReadRequest holds it to that), into one
// http.Request reused from request to request. Of the header fields it keeps
// only what frames the request — Host, Content-Length, Transfer-Encoding,
// Connection and Expect — and checks the syntax of every other line. An
// origin-form path without '%', '?' or '#' is taken from the line in place,
// a route's path as the route's own string, so a warm request allocates no
// string.

var (
	errHeaderTooLarge = errors.New("serve: request header block over the limit")
	errMalformed      = errors.New("serve: malformed request")
)

// Methods and versions a request shares instead of copying.
var (
	methods  = []string{http.MethodGet, http.MethodPost, http.MethodHead}
	versions = []string{"HTTP/1.1", "HTTP/1.0"}
)

// reqReader parses requests off one connection's buffered reader.
type reqReader struct {
	br    *bufio.Reader
	paths []string // the routes' paths, interned
	n     int      // header bytes read for the current request
	// The request being served and its parts, valid until the next read.
	req    http.Request
	url    url.URL
	header http.Header // empty
	body   reqBody
	expect bool   // "Expect: 100-continue"
	host   string // the last Host value, reused while it repeats
	// Scratch: a line longer than br's buffer, a folded header line, the
	// first Content-Length value.
	long, fold, length []byte
}

// read parses the next request line and header block; the body is left to
// req.Body. A header block over headerReadLimit is errHeaderTooLarge.
func (r *reqReader) read() (req *http.Request, err error) {
	r.n = 0
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}()
	method, rest, ok1 := bytes.Cut(line, []byte(" "))
	target, proto, ok2 := bytes.Cut(rest, []byte(" "))
	if !ok1 || !ok2 || len(method) == 0 {
		return nil, errMalformed
	}
	for _, c := range method {
		if !tokenByte(c) {
			return nil, errMalformed
		}
	}
	r.req = http.Request{Method: intern(method, methods), Proto: intern(proto, versions), URL: &r.url, Header: r.header, Body: &r.body}
	req = &r.req
	var ok bool
	if req.ProtoMajor, req.ProtoMinor, ok = http.ParseHTTPVersion(req.Proto); !ok {
		return nil, errMalformed
	}
	if err := r.parseTarget(req.Method, target); err != nil {
		return nil, err
	}

	// The header block, read as textproto.Reader.ReadMIMEHeader reads it.
	var hosts, lengths, codings, expects int
	var chunked, closing, keepAlive, badTrailer bool
	r.expect = false
	for {
		k, v, err := r.field()
		if err != nil {
			return nil, err
		}
		if k == nil {
			break
		}
		switch {
		case equalFold(k, "host"):
			if hosts++; string(v) != r.host {
				r.host = string(v)
			}
		case equalFold(k, "content-length"):
			v = bytes.Trim(v, " \t")
			if lengths++; lengths == 1 {
				r.length = append(r.length[:0], v...)
			} else if !bytes.Equal(v, r.length) {
				return nil, errMalformed
			}
		case equalFold(k, "transfer-encoding"):
			codings++
			chunked = equalFold(v, "chunked")
		case equalFold(k, "connection"):
			closing = closing || hasToken(v, "close")
			keepAlive = keepAlive || hasToken(v, "keep-alive")
		case equalFold(k, "expect"):
			if expects++; expects == 1 {
				r.expect = equalFold(v, "100-continue")
			}
		case equalFold(k, "trailer"):
			badTrailer = badTrailer || hasToken(v, "transfer-encoding") || hasToken(v, "trailer") || hasToken(v, "content-length")
		}
	}
	if hosts > 1 {
		return nil, errMalformed
	}
	if req.Host = r.url.Host; req.Host == "" && hosts == 1 {
		req.Host = r.host
	}

	// Framing, as net/http's readTransfer decides it: Transfer-Encoding
	// counts from HTTP/1.1 (and in "HTTP/0.0"), as one lone "chunked".
	if lengths > 0 {
		if req.ContentLength, err = parseLength(r.length); err != nil {
			return nil, err
		}
	}
	major, minor := req.ProtoMajor, req.ProtoMinor
	req.Close = closing || major == 1 && minor == 0 && !keepAlive
	r.body = reqBody{r: r, n: req.ContentLength}
	if codings > 0 && (major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0) {
		if codings > 1 || !chunked || badTrailer {
			return nil, errMalformed
		}
		r.body = reqBody{r: r, chunked: httputil.NewChunkedReader(r.br)}
		req.ContentLength = -1
	}
	return req, nil
}

// parseTarget sets r.url from the request target, as url.ParseRequestURI
// does (CONNECT's authority form as net/http reads it).
func (r *reqReader) parseTarget(method string, target []byte) error {
	inPlace := len(target) > 0 && target[0] == '/'
	for _, c := range target {
		inPlace = inPlace && c > ' ' && c != 0x7f && c != '%' && c != '?' && c != '#'
	}
	if inPlace {
		r.url = url.URL{Path: intern(target, r.paths)}
		return nil
	}
	raw := string(target)
	authority := method == http.MethodConnect && !strings.HasPrefix(raw, "/")
	if authority {
		raw = "http://" + raw
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return err
	}
	if authority {
		u.Scheme = ""
	}
	r.url = *u
	return nil
}

// intern returns b as a string: one of strs if it is one, else a copy.
func intern(b []byte, strs []string) string {
	for _, s := range strs {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// readLine reads one line without its "\n" or "\r\n", counted against the
// header limit, as textproto.Reader reads lines: in place when it fits the
// buffer; a last line the input ends without a newline is a line.
func (r *reqReader) readLine() ([]byte, error) {
	line, more, err := r.br.ReadLine()
	r.n += len(line) + 2
	if more {
		r.long = append(r.long[:0], line...)
		for more && err == nil && r.n <= headerReadLimit {
			line, more, err = r.br.ReadLine()
			r.n += len(line)
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	switch {
	case err != nil:
		return nil, err
	case r.n > headerReadLimit:
		return nil, errHeaderTooLarge
	}
	return line, nil
}

// field reads one header line, and the obs-fold lines that continue it, and
// returns its name and its value less leading blanks — nil at the blank line
// that ends the block. Like textproto it joins a folded line's parts, each
// trimmed of blanks, with one space, and refuses a first line that starts
// with a blank (no other line can: a fold takes it), a line without a colon,
// an empty or non-token name (a space inside it is allowed) and a control
// byte in the value.
func (r *reqReader) field() (key, value []byte, err error) {
	kv, err := r.readLine()
	if err != nil || len(kv) == 0 {
		return nil, nil, err
	}
	if kv[0] == ' ' || kv[0] == '\t' || bytes.IndexByte(kv, ':') < 0 {
		return nil, nil, errMalformed
	}
	kv = bytes.TrimRight(kv, " \t")
	if b, _ := r.br.Peek(min(r.br.Buffered(), 1)); len(b) == 0 || b[0] == ' ' || b[0] == '\t' {
		// A fold, or a refill ahead that may move the line: copy it first.
		r.fold = append(r.fold[:0], kv...)
		for r.skipBlanks() {
			r.fold = append(r.fold, ' ')
			more, err := r.readLine()
			if err != nil {
				break
			}
			r.fold = append(r.fold, bytes.Trim(more, " \t")...)
		}
		kv = r.fold
	}
	key, value, _ = bytes.Cut(kv, []byte(":"))
	if len(key) == 0 {
		return nil, nil, errMalformed
	}
	for _, c := range key {
		if !tokenByte(c) && c != ' ' {
			return nil, nil, errMalformed
		}
	}
	for _, c := range value {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, errMalformed
		}
	}
	return key, bytes.TrimLeft(value, " \t"), nil
}

// skipBlanks consumes the spaces and tabs that start the next line and
// reports whether there were any.
func (r *reqReader) skipBlanks() bool {
	n := 0
	for b, err := r.br.Peek(1); err == nil && (b[0] == ' ' || b[0] == '\t'); b, err = r.br.Peek(1) {
		r.br.Discard(1)
		n++
	}
	r.n += n
	return n > 0
}

// trailer reads the trailer section after a chunked body, as net/http does:
// a trailer must end within the read buffer, and its lines are checked and
// dropped.
func (r *reqReader) trailer() error {
	switch b, _ := r.br.Peek(2); {
	case string(b) == "\r\n":
		r.br.Discard(2)
		return nil
	case len(b) < 2:
		return io.ErrUnexpectedEOF
	}
	for n := 4; ; n++ {
		b, err := r.br.Peek(n)
		if bytes.HasSuffix(b, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return errMalformed // longer than the buffer
		}
	}
	for r.n = 0; ; {
		if k, _, err := r.field(); err != nil || k == nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
}

// reqBody is a request's body: n declared bytes still to come, or a chunked
// body and its trailer.
type reqBody struct {
	r       *reqReader
	n       int64
	chunked io.Reader // nil: a declared body
	err     error     // once set, every Read returns it
}

func (b *reqBody) Read(p []byte) (n int, err error) {
	switch {
	case b.err != nil:
	case b.chunked != nil:
		if n, b.err = b.chunked.Read(p); b.err == io.EOF {
			if err := b.r.trailer(); err != nil {
				b.err = err
			}
		}
	case b.n == 0:
		b.err = io.EOF
	default:
		n, b.err = b.r.br.Read(p[:min(int64(len(p)), b.n)])
		if b.n -= int64(n); b.n == 0 {
			b.err = io.EOF
		} else if b.err == io.EOF {
			b.err = io.ErrUnexpectedEOF
		}
	}
	return n, b.err
}

func (b *reqBody) Close() error { return nil }

// discard drops the rest of the body the handler left and reports whether
// it ended: a chunked one read up to maxDrain bytes, a declared one only if
// its rest is already buffered — a client that declared a body and does not
// send it must not hold the connection.
func (b *reqBody) discard(scratch []byte) bool {
	if b.chunked == nil && b.err == nil {
		if b.n > int64(b.r.br.Buffered()) {
			return false
		}
		b.r.br.Discard(int(b.n))
		b.n, b.err = 0, io.EOF
	}
	for n := 0; n <= maxDrain; {
		m, err := b.Read(scratch)
		if n += m; err != nil {
			return err == io.EOF
		}
	}
	return false
}

// parseLength reads a Content-Length as net/http does: decimal digits only,
// up to 2⁶³−1.
func parseLength(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, errMalformed
	}
	var n int64
	for _, c := range b {
		d := int64(c - '0')
		if c < '0' || c > '9' || n > (math.MaxInt64-d)/10 {
			return 0, errMalformed
		}
		n = n*10 + d
	}
	return n, nil
}

// tokenByte reports whether c may appear in a method or a header name
// (RFC 9110's tchar).
func tokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
		bytes.IndexByte([]byte("!#$%&'*+-.^_`|~"), c) >= 0
}

// equalFold reports whether b equals the lower-case ASCII s up to ASCII case.
func equalFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// hasToken reports whether the comma-separated list v holds the token tok
// (lower case), blanks around elements ignored.
func hasToken(v []byte, tok string) bool {
	for len(v) > 0 {
		var e []byte
		e, v, _ = bytes.Cut(v, []byte(","))
		if equalFold(bytes.Trim(e, " \t"), tok) {
			return true
		}
	}
	return false
}
