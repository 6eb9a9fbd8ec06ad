package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

// FuzzServeRequest throws arbitrary bytes at every HTTP request decoder —
// evidence maps, variable names, subset queries, positional and CSV
// assignments — and asserts a decoder either rejects the body or returns a
// fully validated result: in-range values, known variables, ancestrally
// closed subsets. This is the serving-layer edge of the repo's
// length-validate-before-allocating hardening standard (FuzzDecodeFrame,
// FuzzLoadState). encoding/json is the JSON scanner's oracle: a body the
// scanner accepts decodes to the same jsonQuery under json.Unmarshal. The
// previous CSV parser, kept below, is the CSV parser's: both accept and
// refuse the same bodies, with the same values. Every body is decoded on
// alarm (cards 2–4) and on a four-variable tree of card 12, whose values
// reach two digits.
func FuzzServeRequest(f *testing.F) {
	var nets []*bn.Network
	for _, name := range []string{"alarm", fuzzTree} {
		nw, err := netgen.ByName(name)
		if err != nil {
			f.Fatal(err)
		}
		nets = append(nets, nw)
	}

	for _, seed := range fuzzServeSeeds() {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, nw := range nets {
			checkDecoders(t, nw, data)
		}
	})
}

// fuzzTree is FuzzServeRequest's second network: variables t_0…t_3, card 12.
const fuzzTree = "tree:4:12:1"

// checkDecoders runs every decoder on data over nw and checks what each
// accepts (see FuzzServeRequest).
func checkDecoders(t *testing.T, nw *bn.Network, data []byte) {
	names := make(map[string]int, nw.Len())
	for i := 0; i < nw.Len(); i++ {
		names[nw.Var(i).Name] = i
	}
	if q, err := decodeJSON(data, nw.Len()); err == nil {
		var want jsonQuery
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("scanner accepted a body encoding/json refuses: %v", err)
		}
		if !reflect.DeepEqual(q, want) {
			t.Fatalf("scanner read %#v, encoding/json %#v", q, want)
		}
	}
	got, err := parseCSVAssignment(nw, data)
	want, wantErr := csvOracle(nw, data)
	if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
		t.Fatalf("CSV parser: %v, %v; previous parser: %v, %v", got, err, want, wantErr)
	}
	if x, err := decodeFullAssignment(nw, names, data); err == nil {
		if len(x) != nw.Len() {
			t.Fatalf("full assignment has %d values, want %d", len(x), nw.Len())
		}
		for i, v := range x {
			if v < 0 || v >= nw.Card(i) {
				t.Fatalf("x[%d] = %d out of range", i, v)
			}
		}
	}
	if set, x, err := decodeSubsetAssignment(nw, names, data); err == nil {
		if len(set) == 0 {
			t.Fatal("accepted empty subset")
		}
		for idx, i := range set {
			if idx > 0 && set[idx-1] >= i {
				t.Fatal("subset not ascending")
			}
			if x[i] < 0 || x[i] >= nw.Card(i) {
				t.Fatalf("subset value %d out of range for %d", x[i], i)
			}
			inSet := func(j int) bool {
				for _, s := range set {
					if s == j {
						return true
					}
				}
				return false
			}
			for _, p := range nw.Parents(i) {
				if !inSet(p) {
					t.Fatalf("accepted non-closed subset: %d missing parent %d", i, p)
				}
			}
		}
	}
	if target, x, err := decodeClassify(nw, names, data); err == nil {
		if target < 0 || target >= nw.Len() || len(x) != nw.Len() {
			t.Fatalf("classify target %d / arity %d invalid", target, len(x))
		}
	}
	if target, ev, err := decodeClassifyPartial(nw, names, data); err == nil {
		if _, ok := ev[target]; ok {
			t.Fatal("accepted target in evidence")
		}
		for i, v := range ev {
			if i < 0 || i >= nw.Len() || v < 0 || v >= nw.Card(i) {
				t.Fatalf("evidence %d=%d out of range", i, v)
			}
		}
	}
	if assign, err := decodeMarginal(nw, names, data); err == nil {
		if len(assign) == 0 {
			t.Fatal("accepted empty marginal")
		}
		for i, v := range assign {
			if i < 0 || i >= nw.Len() || v < 0 || v >= nw.Card(i) {
				t.Fatalf("marginal %d=%d out of range", i, v)
			}
		}
	}
}

// fuzzServeSeeds is the seed corpus: one representative body per request
// shape plus malformed edges.
func fuzzServeSeeds() []string {
	csv := ""
	for i := 0; i < 37; i++ {
		if i > 0 {
			csv += ","
		}
		csv += "1"
	}
	return []string{
		"",
		csv,
		"0,1,2",
		"9999999999,0",
		`{"x":[0,1,0]}`,
		`{"assign":{"alarm_0":1,"alarm_1":0}}`,
		`{"assign":{"nope":0}}`,
		`{"target":"alarm_3","x":[0,0,0]}`,
		`{"target":"alarm_3","assign":{"alarm_0":1}}`,
		`{"target":"alarm_0","evidence":{"alarm_1":1}}`,
		`{"target":"alarm_0","evidence":{"alarm_0":0}}`,
		`{"assign":{}}`,
		`{"x": notjson`,
		"{\"assign\":{\"alarm_0\":-1}}",
		" \t\n{\"x\":[]}",
		`{"x":[0],"x":[1]}`,
		`{"assign":{"alarm_0":0,"alarm_0":1}}`,
		`{"X":[0]}`,
		`{"Target":"alarm_0","x":[0]}`,
		`{"x":[0,null,1]}`,
		`{"assign":{"alarm_0":null}}`,
		`{"x":[1e0]}`,
		`{"x":[1.0]}`,
		`{"x":[-0]}`,
		`{"x":[9999999999999999999]}`,
		`{"x":[0]}x`,
		"\ufeff{\"x\":[0]}",
		`{"u":` + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + `}`,
		`{"u":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`,
		`"alarm_0"`,
		"\u00a00\u3000, 1\v" + csv[3:],
		// On fuzzTree: two-digit values, a leading zero, padding, a value
		// equal to the card, n+1 values and a trailing comma.
		"10,11,0,9",
		"05,1,2,3",
		" 10 ,\t2,\u00a03 , 11\n",
		"12,0,0,0",
		"1,2,3,4,5",
		"1,2,3,4,",
		`{"x":[10,11,0,9]}`,
		`{"x":[05,1,2,3]}`,
		`{"x":[ 10 , 2,3 ,11 ]}`,
		`{"x":[12,0,0,0]}`,
		`{"x":[1,2,3,4,5]}`,
		`{"x":[1,2,3,4,]}`,
		`{"target":"t_1","x":[10,0,11,1]}`,
	}
}

// csvOracle is the CSV parser the one-pass parseCSVAssignment replaced,
// unchanged: it counts the separators, then splits, trims and parses each
// value.
func csvOracle(nw *bn.Network, body []byte) ([]int, error) {
	n := nw.Len()
	if c := bytes.Count(body, []byte{','}) + 1; c != n {
		return nil, fmt.Errorf("serve: %d values, want %d (one per variable)", c, n)
	}
	x := make([]int, n)
	for i := 0; i < n; i++ {
		var tok []byte
		if j := bytes.IndexByte(body, ','); j >= 0 {
			tok, body = body[:j], body[j+1:]
		} else {
			tok, body = body, nil
		}
		v, err := oracleParseUint(bytes.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("serve: value %d: %v", i, err)
		}
		if v >= nw.Card(i) {
			return nil, fmt.Errorf("serve: value %d = %d out of range (card %d)", i, v, nw.Card(i))
		}
		x[i] = v
	}
	return x, nil
}

// oracleParseUint parses a small decimal. The length cap keeps any accepted
// value far from overflow (cardinalities are tiny).
func oracleParseUint(tok []byte) (int, error) {
	if len(tok) == 0 {
		return 0, fmt.Errorf("empty value")
	}
	if len(tok) > 9 {
		return 0, fmt.Errorf("value too long")
	}
	v := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a number")
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

// TestWriteFuzzServeCorpus regenerates the committed seed corpus under
// testdata/fuzz when DISTBAYES_WRITE_FUZZ_CORPUS is set; otherwise it checks
// the corpus holds exactly the seeds of fuzzServeSeeds, byte for byte.
func TestWriteFuzzServeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzServeRequest")
	write := os.Getenv("DISTBAYES_WRITE_FUZZ_CORPUS") != ""
	if write {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	seeds := fuzzServeSeeds()
	for i, seed := range seeds {
		path := filepath.Join(dir, "seed"+strconv.Itoa(i))
		data := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(seed) + ")\n")
		if write {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		} else if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s is not seed %d (%v); regenerate with DISTBAYES_WRITE_FUZZ_CORPUS=1", path, i, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(seeds) {
		t.Errorf("%s holds %d files, want the %d seeds (%v)", dir, len(entries), len(seeds), err)
	}
}
