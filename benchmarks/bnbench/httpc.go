package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"

	"distbayes/internal/bn"
	"distbayes/internal/serve"
	"distbayes/internal/stream"
)

// The query load goes through the front door: the serve HTTP server over
// loopback TCP. The client speaks raw HTTP/1.1 on one keep-alive connection
// with request bytes encoded before timing starts, so a measured round trip
// is the server's work plus the transport, not client-side encoding.

type reqKind int

const (
	kindQueryProb reqKind = iota
	kindSubsetProb
	kindClassify
)

var kindPath = [...]string{"/v1/queryprob", "/v1/subsetprob", "/v1/classify"}

// request is one pre-encoded query together with what the benchmark needs to
// compute the same answer in process.
type request struct {
	kind   reqKind
	raw    []byte // the whole HTTP/1.1 request
	bodyAt int    // where the body starts in raw
	set    []int  // variables the probability is over (all of them for queryprob)
	x      []int
	target int // classify
}

func (r *request) body() []byte { return r.raw[r.bodyAt:] }

// answer is the result of one query; p is set for the probability queries and
// value for classify.
type answer struct {
	p     float64
	value int
}

// equal reports bit equality, which is what the serving layer promises for
// answers computed from the same snapshot.
func (a answer) equal(b answer) bool {
	return math.Float64bits(a.p) == math.Float64bits(b.p) && a.value == b.value
}

// inProcess computes a request's answer from a snapshot's factors directly:
// the same products, in the same order, that the server computes.
func inProcess(snap serve.Snapshot, r *request) answer {
	nw := snap.Network()
	factor := func(i, v int, x []int) float64 { return snap.Factor(i, v, nw.ParentIndex(i, x)) }
	if r.kind != kindClassify {
		p := 1.0
		for _, i := range r.set {
			p *= factor(i, r.x[i], r.x)
		}
		return answer{p: p}
	}
	logp := func(p float64) float64 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Log(p)
	}
	x := append([]int(nil), r.x...)
	best, bestScore := 0, math.Inf(-1)
	for y := 0; y < nw.Card(r.target); y++ {
		x[r.target] = y
		score := logp(factor(r.target, y, x))
		for _, c := range nw.Children(r.target) {
			score += logp(factor(c, x[c], x))
		}
		if score > bestScore {
			best, bestScore = y, score
		}
	}
	return answer{value: best}
}

// buildRequests encodes n requests against the served network nw: of every
// four, two are full-joint queryprob bodies in the CSV form, one is a
// subsetprob over a small ancestral closure and one is a classify. The
// assignments are the sampled test events, so the queries hit parent
// configurations the stream has seen.
func buildRequests(nw *bn.Network, host string, queries []stream.Query, n int, seed uint64) []request {
	closures := smallClosures(nw, 8)
	rng := bn.NewRNG(seed)
	all := make([]int, nw.Len())
	for i := range all {
		all[i] = i
	}
	reqs := make([]request, n)
	for i := range reqs {
		x := queries[i%len(queries)].X
		r := request{x: x}
		var body string
		switch i % 4 {
		case 0, 1:
			r.kind, r.set = kindQueryProb, all
			body = csvAssignment(x)
		case 2:
			r.kind, r.set = kindSubsetProb, closures[rng.Intn(len(closures))]
			var sb strings.Builder
			sb.WriteString(`{"assign":{`)
			for j, v := range r.set {
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%q:%d", nw.Var(v).Name, x[v])
			}
			sb.WriteString(`}}`)
			body = sb.String()
		case 3:
			r.kind, r.target = kindClassify, rng.Intn(nw.Len())
			body = fmt.Sprintf(`{"target":%q,"x":[%s]}`, nw.Var(r.target).Name, csvAssignment(x))
		}
		r.raw = []byte(fmt.Sprintf(
			"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			kindPath[r.kind], host, len(body), body))
		r.bodyAt = len(r.raw) - len(body)
		reqs[i] = r
	}
	return reqs
}

// smallClosures returns the distinct ancestral closures of single variables
// that have between 2 and max members (every variable's own closure if the
// network has none that small).
func smallClosures(nw *bn.Network, max int) [][]int {
	var out [][]int
	for pass := 0; pass < 2 && len(out) == 0; pass++ {
		for i := 0; i < nw.Len() && len(out) < 32; i++ {
			set := nw.AncestralClosure([]int{i})
			if pass == 1 || (len(set) > 1 && len(set) <= max) {
				sort.Ints(set)
				out = append(out, set)
			}
		}
	}
	return out
}

func csvAssignment(x []int) string {
	var sb strings.Builder
	sb.Grow(2 * len(x))
	for i, v := range x {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

// client is one keep-alive connection to the server.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial query server: %w", err)
	}
	return &client{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one request and reads exactly one response. The returned body is
// valid until the next call.
func (c *client) do(raw []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(raw); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	var ok bool
	if status, ok = atoi(line[9:12]); !ok {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, fmt.Errorf("read header: %w", err)
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			if length, ok = atoi(bytes.TrimSpace(v)); !ok {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	if cap(c.body) < length {
		c.body = make([]byte, length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, fmt.Errorf("read body: %w", err)
	}
	return status, c.body, nil
}

// reply is what the benchmark reads out of a 200 response.
type reply struct {
	answer
	version uint64
	ageUS   int64
}

// parseReply reads the fields of
// {"result":{"p":0.01},"snapshot":{"version":7,"age_us":12}}.
func parseReply(kind reqKind, body []byte) (reply, error) {
	var r reply
	var err error
	if kind == kindClassify {
		var v int64
		v, err = intField(body, `"value":`)
		r.value = int(v)
	} else {
		var tok []byte
		if tok, err = field(body, `"p":`); err == nil {
			r.p, err = strconv.ParseFloat(string(tok), 64)
		}
	}
	if err != nil {
		return r, err
	}
	v, err := intField(body, `"version":`)
	if err != nil {
		return r, err
	}
	r.version = uint64(v)
	r.ageUS, err = intField(body, `"age_us":`)
	return r, err
}

func field(body []byte, key string) ([]byte, error) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return nil, fmt.Errorf("response %q has no %s", body, key)
	}
	tok := body[i+len(key):]
	if j := bytes.IndexAny(tok, ",}"); j >= 0 {
		tok = tok[:j]
	}
	return tok, nil
}

func intField(body []byte, key string) (int64, error) {
	tok, err := field(body, key)
	if err != nil {
		return 0, err
	}
	n, ok := atoi(tok)
	if !ok {
		return 0, fmt.Errorf("response %q: %s is not a number", body, key)
	}
	return int64(n), nil
}

// atoi parses a non-negative decimal without allocating; the client calls it
// several times per request inside the timed round trip.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
