package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"distbayes/internal/bn"
)

// Request decoding. Two body shapes are accepted, dispatched on the first
// byte: a JSON object, or (for the full-assignment endpoints) a compact CSV
// fast path — "v0,v1,...", one value per variable in declaration order —
// that a closed-loop client can emit with zero encoding cost. Both are read
// in one pass and validated against the network before use: unknown names,
// out-of-range values, wrong arity and non-closed subsets are rejected. A
// positional assignment (CSV or "x") is refused at its (n+1)-th value on an
// n-variable network, so it never holds more than n values whatever the body
// holds; the name maps grow with the body, which the server's body cap
// bounds before the decoder sees a byte. The decoders are methods of a
// scratch, the request's n-sized buffers, which the server takes from its
// pool and takes back once the answer is written: a request that fits them
// allocates no n-sized slice.
//
// The JSON body is one object; the keys "x", "assign", "target" and
// "evidence" fill a jsonQuery and any other key is skipped. The scanner
// accepts what encoding/json would decode into jsonQuery, less four kinds
// of body, which are 400s:
//   - a duplicate key, at the top level or inside "assign"/"evidence"
//     (encoding/json keeps the last one);
//   - a key equal to a field name only up to case, such as "X" or "Target"
//     (encoding/json folds case);
//   - null inside "x" or as a map value (encoding/json reads it as 0);
//   - an "x" with more values than the network has variables, also on the
//     endpoints that do not read "x".
//
// A whole field set to null is absent. encoding/json still runs one token
// at a time: it unquotes a string holding an escape or a non-ASCII byte, and
// json.Valid checks the value of a skipped key, so escapes, UTF-8 repair and
// the nesting limit are encoding/json's own.

// jsonQuery is the union request shape of the POST endpoints; each decoder
// reads the fields it needs.
type jsonQuery struct {
	// X is a full assignment in variable order (x[i] = value of variable i).
	X []int `json:"x"`
	// Assign maps variable names to values; a full assignment for
	// queryprob/classify, a subset for subsetprob/marginal.
	Assign map[string]int `json:"assign"`
	// Target names the classification target (classify/classifypartial).
	Target string `json:"target"`
	// Evidence maps observed variable names to values (classifypartial).
	Evidence map[string]int `json:"evidence"`
}

// jsonFields are jsonQuery's keys, in field order.
var jsonFields = [...]string{"x", "assign", "target", "evidence"}

// maxSkipDepth is encoding/json's nesting limit less the request object.
const maxSkipDepth = 10000 - 1

// scratch is one request's n-sized decode buffers: the assignment the
// positional and name-map decoders fill, and the subset decoder's marks.
// What a decoder returns aliases them until the scratch is reused.
type scratch struct {
	x    []int
	seen []bool
}

// values returns n assignment cells, not cleared.
func (sc *scratch) values(n int) []int {
	if cap(sc.x) < n {
		sc.x = make([]int, n)
	}
	return sc.x[:n]
}

// marks returns n cleared marks.
func (sc *scratch) marks(n int) []bool {
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	clear(sc.seen[:n])
	return sc.seen[:n]
}

// decodeJSON scans a request object on an n-variable network; its "x" is
// read into the scratch.
func (sc *scratch) decodeJSON(body []byte, n int) (jsonQuery, error) {
	var q jsonQuery
	var seen [len(jsonFields)]bool
	s := scanner{b: body}
	err := s.object(func(key []byte) error {
		f := -1
		for i, name := range jsonFields {
			if string(key) == name {
				f = i
			} else if bytes.EqualFold(key, []byte(name)) {
				return fmt.Errorf("serve: bad request JSON: key %q is not %q", key, name)
			}
		}
		switch {
		case f < 0:
			return s.skip()
		case seen[f]:
			return fmt.Errorf("serve: bad request JSON: duplicate key %q", key)
		}
		seen[f] = true
		if s.ws() == 'n' && bytes.HasPrefix(s.b[s.p:], []byte("null")) {
			s.p += 4
			return nil
		}
		var err error
		switch f {
		case 0:
			q.X, err = s.ints(sc.values(n))
		case 1:
			q.Assign, err = s.intMap()
		case 2:
			var t []byte
			t, err = s.str()
			q.Target = string(t)
		case 3:
			q.Evidence, err = s.intMap()
		}
		return err
	})
	if s.ws(); err == nil && s.p != len(s.b) {
		err = s.fail("bytes after the object")
	}
	return q, err
}

// scanner reads one JSON request body front to back.
type scanner struct {
	b []byte
	p int
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("serve: bad request JSON: %s at byte %d", what, s.p)
}

// ws skips whitespace and returns the next byte (0 at the end).
func (s *scanner) ws() byte {
	for ; s.p < len(s.b); s.p++ {
		if c := s.b[s.p]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// object scans an object, calling member with each key once the scanner
// stands at its value; member consumes the value.
func (s *scanner) object(member func(key []byte) error) error {
	if s.ws() != '{' {
		return s.fail("want {")
	}
	if s.p++; s.ws() == '}' {
		s.p++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.ws() != ':' {
			return s.fail("want :")
		}
		s.p++
		if err := member(key); err != nil {
			return err
		}
		switch s.ws() {
		case ',':
			s.p++
		case '}':
			s.p++
			return nil
		default:
			return s.fail("want , or }")
		}
	}
}

// str scans a string token. Plain ASCII is returned in place; a token with
// an escape, a control or a non-ASCII byte is unquoted by encoding/json.
func (s *scanner) str() ([]byte, error) {
	if s.ws() != '"' {
		return nil, s.fail("want a string")
	}
	start, plain := s.p, true
	for s.p++; s.p < len(s.b) && s.b[s.p] != '"'; s.p++ {
		c := s.b[s.p]
		plain = plain && c >= 0x20 && c < utf8.RuneSelf && c != '\\'
		if c == '\\' {
			s.p++
		}
	}
	if s.p++; s.p > len(s.b) {
		return nil, s.fail("unterminated string")
	}
	if tok := s.b[start:s.p]; !plain {
		var v string
		if err := json.Unmarshal(tok, &v); err != nil {
			return nil, fmt.Errorf("serve: bad request JSON: %w", err)
		}
		return []byte(v), nil
	}
	return s.b[start+1 : s.p-1], nil
}

// int scans a number that encoding/json stores in an int: no leading zero,
// fraction or exponent, and in range.
func (s *scanner) int() (int, error) {
	s.ws()
	b, p, v := s.b, s.p, 0
	if p < len(b) && b[p] == '-' {
		p++
	}
	digits := p
	for ; p < len(b) && '0' <= b[p] && b[p] <= '9'; p++ {
		v = v*10 + int(b[p]-'0')
	}
	var err error
	if p-digits > 9 || digits > s.p { // nine digits fit any int
		v, err = strconv.Atoi(string(b[s.p:p]))
	}
	if err != nil || p == digits || p-digits > 1 && b[digits] == '0' || p < len(b) && (b[p] == '.' || b[p]|0x20 == 'e') {
		return 0, s.fail("want an integer that fits an int")
	}
	s.p = p
	return v, nil
}

// ints scans the "x" array into x, refusing it at its (len(x)+1)-th value.
func (s *scanner) ints(x []int) ([]int, error) {
	if s.ws() != '[' {
		return nil, s.fail("want [")
	}
	if s.p++; s.ws() == ']' {
		s.p++
		return x[:0], nil
	}
	k, err := s.list(x, nil)
	return x[:k], err
}

// list reads a positional assignment into x from the scanner's position and
// returns how many values it read: the elements of an "x" array through its
// ']' (nw nil), or a whole CSV body (nw checks each value against its
// card). It is one loop over values. The common value, one digit and its
// comma, costs a few compares; any other value — padded, several digits,
// signed, the last one, malformed — takes the general branch of the same
// iteration. The dialects differ only where their formats do: an element is
// what encoding/json stores in an int, padded with JSON white space; a CSV
// value is 1–9 digits, leading zeros allowed, below its card and padded
// with Unicode white space. Either list is refused at its (len(x)+1)-th
// value.
func (s *scanner) list(x []int, nw *bn.Network) (int, error) {
	b, csv, i := s.b, nw != nil, 0
	for p := s.p; ; p = s.p {
		if p+1 < len(b) && b[p]-'0' <= 9 && b[p+1] == ',' && i < len(x) {
			if d := int(b[p] - '0'); !csv || d < nw.Card(i) {
				x[i], i, s.p = d, i+1, p+2
				continue
			}
		}
		if i == len(x) {
			return i, fmt.Errorf("serve: more than %d values (one per variable)", len(x))
		}
		var err error
		if csv {
			x[i], err = s.csvValue(i, nw.Card(i))
		} else {
			x[i], err = s.int()
		}
		if err != nil {
			return i, err
		}
		i++
		switch c := s.ws(); {
		case c == ',':
			s.p++
		case !csv && c == ']':
			s.p++
			return i, nil
		case csv && s.p == len(b):
			return i, nil
		default:
			return i, s.fail("want , or the end of the list")
		}
	}
}

// csvValue scans CSV value i, 1–9 digits below card, and the Unicode white
// space on either side.
func (s *scanner) csvValue(i, card int) (int, error) {
	s.pad()
	start, v := s.p, 0
	for ; s.p < len(s.b) && s.p-start < 9 && '0' <= s.b[s.p] && s.b[s.p] <= '9'; s.p++ {
		v = v*10 + int(s.b[s.p]-'0')
	}
	if s.p == start || v >= card {
		return 0, fmt.Errorf("serve: value %d: want 1-9 digits below its card %d", i, card)
	}
	s.pad()
	return v, nil
}

// pad skips Unicode white space.
func (s *scanner) pad() {
	for s.p < len(s.b) {
		r, size := rune(s.b[s.p]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(s.b[s.p:])
		}
		if !unicode.IsSpace(r) {
			return
		}
		s.p += size
	}
}

// intMap scans a name→value object.
func (s *scanner) intMap() (map[string]int, error) {
	m := make(map[string]int)
	return m, s.object(func(key []byte) error {
		if _, dup := m[string(key)]; dup {
			return fmt.Errorf("serve: bad request JSON: duplicate name %q", key)
		}
		v, err := s.int()
		m[string(key)] = v
		return err
	})
}

// skip moves past the value of an unknown key, which json.Valid checks. A
// value ends where its brackets balance, at a separator or white space.
func (s *scanner) skip() error {
	s.ws()
	start, depth := s.p, 0
	for s.p < len(s.b) {
		c := s.b[s.p]
		if depth == 0 && s.p > start && (c == ',' || c == ']' || c == '}' || c <= ' ') {
			break
		}
		switch c {
		case '"':
			if _, err := s.str(); err != nil {
				return err
			}
			continue
		case '[', '{':
			if depth++; depth > maxSkipDepth {
				return s.fail("value nested too deep")
			}
		case ']', '}':
			depth--
		}
		s.p++
	}
	if !json.Valid(s.b[start:s.p]) {
		return s.fail("invalid value")
	}
	return nil
}

// parseCSVAssignment parses the compact "v0,v1,..." form in one pass (see
// scanner.list).
func (sc *scratch) parseCSVAssignment(nw *bn.Network, body []byte) ([]int, error) {
	x := sc.values(nw.Len())
	s := scanner{b: body}
	k, err := s.list(x, nw)
	if err == nil && k < len(x) {
		err = fmt.Errorf("serve: %d values, want %d (one per variable)", k, len(x))
	}
	if err != nil {
		return nil, err
	}
	return x, nil
}

// resolveVar maps a variable name to its index.
func resolveVar(names map[string]int, name string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("serve: missing variable name")
	}
	i, ok := names[name]
	if !ok {
		return 0, fmt.Errorf("serve: unknown variable %q", name)
	}
	return i, nil
}

// applyAssign validates a name→value map and hands each variable's index
// and value to set.
func applyAssign(nw *bn.Network, names map[string]int, m map[string]int, set func(i, v int)) error {
	for name, v := range m {
		i, ok := names[name]
		if !ok {
			return fmt.Errorf("serve: unknown variable %q", name)
		}
		if v < 0 || v >= nw.Card(i) {
			return fmt.Errorf("serve: value %d out of range for %s (card %d)", v, name, nw.Card(i))
		}
		set(i, v)
	}
	return nil
}

// assignmentFromQuery builds a full assignment from a decoded JSON query:
// positional "x", validated in place, or complete name map "assign". skip,
// when >= 0, is a variable whose value may be omitted and is zeroed (the
// classification target — its cell is scratch).
func (sc *scratch) assignmentFromQuery(nw *bn.Network, names map[string]int, q *jsonQuery, skip int) ([]int, error) {
	n := nw.Len()
	switch {
	case q.X != nil:
		if len(q.X) != n {
			return nil, fmt.Errorf("serve: x has %d values, want %d", len(q.X), n)
		}
		for i, v := range q.X {
			if i == skip {
				q.X[i] = 0
			} else if v < 0 || v >= nw.Card(i) {
				return nil, fmt.Errorf("serve: x[%d] = %d out of range (card %d)", i, v, nw.Card(i))
			}
		}
		return q.X, nil
	case q.Assign != nil:
		x, seen := sc.values(n), sc.marks(n)
		clear(x)
		if err := applyAssign(nw, names, q.Assign, func(i, v int) { x[i], seen[i] = v, true }); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if !seen[i] && i != skip {
				return nil, fmt.Errorf("serve: variable %s unassigned", nw.Var(i).Name)
			}
		}
		return x, nil
	}
	return nil, fmt.Errorf(`serve: request needs "x" or "assign"`)
}

// decodeFullAssignment decodes a full-assignment body: CSV fast path or
// JSON ("x" / "assign").
func (sc *scratch) decodeFullAssignment(nw *bn.Network, names map[string]int, body []byte) ([]int, error) {
	body = bytes.TrimSpace(body)
	if len(body) == 0 {
		return nil, fmt.Errorf("serve: empty request body")
	}
	if body[0] != '{' {
		return sc.parseCSVAssignment(nw, body)
	}
	q, err := sc.decodeJSON(body, nw.Len())
	if err != nil {
		return nil, err
	}
	return sc.assignmentFromQuery(nw, names, &q, -1)
}

// decodeSubsetAssignment decodes a subset query: JSON "assign" naming the
// member variables. The set must be ancestrally closed — every member's
// parents assigned too — for the subset factorization to be exact; the
// in-process tracker trusts its callers here, the network front end
// validates. Returns the members ascending plus the embedding assignment,
// whose cells outside the set are left as the scratch held them.
func (sc *scratch) decodeSubsetAssignment(nw *bn.Network, names map[string]int, body []byte) ([]int, []int, error) {
	q, err := sc.decodeJSON(bytes.TrimSpace(body), nw.Len())
	if err != nil {
		return nil, nil, err
	}
	if len(q.Assign) == 0 {
		return nil, nil, fmt.Errorf(`serve: subset query needs a non-empty "assign"`)
	}
	x, seen := sc.values(nw.Len()), sc.marks(nw.Len())
	if err := applyAssign(nw, names, q.Assign, func(i, v int) { x[i], seen[i] = v, true }); err != nil {
		return nil, nil, err
	}
	set := make([]int, 0, len(q.Assign))
	for i, ok := range seen {
		if !ok {
			continue
		}
		set = append(set, i)
		for _, p := range nw.Parents(i) {
			if !seen[p] {
				return nil, nil, fmt.Errorf("serve: subset not ancestrally closed: %s assigned but its parent %s is not",
					nw.Var(i).Name, nw.Var(p).Name)
			}
		}
	}
	return set, x, nil
}

// decodeClassify decodes a classification request: JSON "target" plus a
// full assignment ("x" or "assign"); the target's own value may be omitted.
func (sc *scratch) decodeClassify(nw *bn.Network, names map[string]int, body []byte) (int, []int, error) {
	q, err := sc.decodeJSON(bytes.TrimSpace(body), nw.Len())
	if err != nil {
		return 0, nil, err
	}
	target, err := resolveVar(names, q.Target)
	if err != nil {
		return 0, nil, err
	}
	x, err := sc.assignmentFromQuery(nw, names, &q, target)
	return target, x, err
}

// decodeClassifyPartial decodes "target" + "evidence" (a name→value map of
// the observed subset, which must not include the target).
func (sc *scratch) decodeClassifyPartial(nw *bn.Network, names map[string]int, body []byte) (int, map[int]int, error) {
	q, err := sc.decodeJSON(bytes.TrimSpace(body), nw.Len())
	if err != nil {
		return 0, nil, err
	}
	target, err := resolveVar(names, q.Target)
	if err != nil {
		return 0, nil, err
	}
	ev, err := indexMap(nw, names, q.Evidence)
	if err != nil {
		return 0, nil, err
	}
	if _, ok := ev[target]; ok {
		return 0, nil, fmt.Errorf("serve: target %s appears in evidence", q.Target)
	}
	return target, ev, nil
}

// decodeMarginal decodes a marginal query: JSON "assign", a non-empty
// name→value map over any variable subset.
func (sc *scratch) decodeMarginal(nw *bn.Network, names map[string]int, body []byte) (map[int]int, error) {
	q, err := sc.decodeJSON(bytes.TrimSpace(body), nw.Len())
	if err != nil {
		return nil, err
	}
	if len(q.Assign) == 0 {
		return nil, fmt.Errorf(`serve: marginal query needs a non-empty "assign"`)
	}
	return indexMap(nw, names, q.Assign)
}

// indexMap validates a name→value map into an index→value map.
func indexMap(nw *bn.Network, names map[string]int, m map[string]int) (map[int]int, error) {
	out := make(map[int]int, len(m))
	return out, applyAssign(nw, names, m, func(i, v int) { out[i] = v })
}
