package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// The decoders on a fresh scratch each call, as a test without a server
// calls them: every call allocates its own n-sized buffers.

func decodeJSON(body []byte, n int) (jsonQuery, error) { return new(scratch).decodeJSON(body, n) }

func parseCSVAssignment(nw *bn.Network, body []byte) ([]int, error) {
	return new(scratch).parseCSVAssignment(nw, body)
}

func decodeFullAssignment(nw *bn.Network, names map[string]int, body []byte) ([]int, error) {
	return new(scratch).decodeFullAssignment(nw, names, body)
}

func decodeSubsetAssignment(nw *bn.Network, names map[string]int, body []byte) ([]int, []int, error) {
	return new(scratch).decodeSubsetAssignment(nw, names, body)
}

func decodeClassify(nw *bn.Network, names map[string]int, body []byte) (int, []int, error) {
	return new(scratch).decodeClassify(nw, names, body)
}

func decodeClassifyPartial(nw *bn.Network, names map[string]int, body []byte) (int, map[int]int, error) {
	return new(scratch).decodeClassifyPartial(nw, names, body)
}

func decodeMarginal(nw *bn.Network, names map[string]int, body []byte) (map[int]int, error) {
	return new(scratch).decodeMarginal(nw, names, body)
}

// TestDecodeJSONMatchesMarshal decodes 1 000 random queries, each written
// four ways — json.Marshal, json.MarshalIndent, and a hand-built object with
// a random subset of the fields in random order among unknown keys holding
// nested values, compact and indented — and checks every decode equals the
// query it came from. Names mix quotes, backslashes, '<' (which Marshal
// escapes), non-ASCII and invalid UTF-8; an invalid byte compares as the
// U+FFFD that Marshal writes for it.
func TestDecodeJSONMatchesMarshal(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewPCG(1, 2))
	for iter := 0; iter < 1000; iter++ {
		q := randomQuery(rng, n)
		want := jsonQuery{X: q.X, Assign: repairKeys(q.Assign), Target: repairUTF8(q.Target), Evidence: repairKeys(q.Evidence)}
		compact, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(q, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		mixed := mixedObject(rng, q)
		var mixedIndented bytes.Buffer
		if err := json.Indent(&mixedIndented, mixed, "\t", "\t"); err != nil {
			t.Fatalf("%s: %v", mixed, err)
		}
		for _, body := range [][]byte{compact, indented, mixed, mixedIndented.Bytes()} {
			got, err := decodeJSON(body, n)
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded %#v, want %#v", body, got, want)
			}
		}
	}
}

// namePieces build the random names; none holds a digit, so the index a
// name starts with keeps names distinct after UTF-8 repair.
var namePieces = []string{"alarm_", `q"uote`, `back\slash`, "<tag>&", "é", "日本", " ", "\x01", "\xff", "\xc3(", "\xe6\x97"}

func randomName(rng *rand.Rand, k int) string {
	name := strconv.Itoa(k) + "_"
	for i := rng.IntN(4); i > 0; i-- {
		name += namePieces[rng.IntN(len(namePieces))]
	}
	return name
}

// int64Edges are the values an integer field is tried at besides random ones.
var int64Edges = []int{0, 1, -1, 9, 10, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt32, math.MinInt32}

func randomInt(rng *rand.Rand) int {
	switch rng.IntN(3) {
	case 0:
		return int64Edges[rng.IntN(len(int64Edges))]
	case 1:
		return rng.IntN(100)
	}
	return int(rng.Uint64())
}

func randomMap(rng *rand.Rand) map[string]int {
	switch rng.IntN(6) {
	case 0, 1:
		return nil
	case 2:
		return map[string]int{}
	}
	m := make(map[string]int)
	for k := rng.IntN(6); k >= 0; k-- {
		m[randomName(rng, k)] = randomInt(rng)
	}
	return m
}

func randomQuery(rng *rand.Rand, n int) jsonQuery {
	var q jsonQuery
	switch rng.IntN(6) {
	case 0, 1:
	case 2:
		q.X = []int{}
	default:
		q.X = make([]int, 1+rng.IntN(n))
		for i := range q.X {
			q.X[i] = randomInt(rng)
		}
	}
	q.Assign, q.Evidence = randomMap(rng), randomMap(rng)
	if rng.IntN(2) == 0 {
		q.Target = randomName(rng, rng.IntN(1000))
	}
	return q
}

// randomValue is a JSON value nested up to depth levels.
func randomValue(rng *rand.Rand, depth int) any {
	switch k := rng.IntN(8); {
	case depth > 0 && k == 0:
		a := make([]any, rng.IntN(4))
		for i := range a {
			a[i] = randomValue(rng, depth-1)
		}
		return a
	case depth > 0 && k == 1:
		m := make(map[string]any)
		for i := rng.IntN(4); i > 0; i-- {
			m[randomName(rng, i)] = randomValue(rng, depth-1)
		}
		return m
	case k == 2:
		return randomName(rng, 0)
	case k == 3:
		return rng.NormFloat64() * 1e6
	case k == 4:
		return rng.IntN(2) == 0
	case k == 5:
		return nil
	}
	return randomInt(rng)
}

// unknownKeys are keys the scanner skips: none equals a field name up to case.
var unknownKeys = []string{"extra", "meta", "xx", "targets", "évidence", `a"ssign`, "", "<x>", `\`}

// mixedObject writes q's non-zero fields, and some zero ones as null or
// empty, in random order among unknown keys; a known key is sometimes
// spelled with a \u escape.
func mixedObject(rng *rand.Rand, q jsonQuery) []byte {
	var members []string
	member := func(key []byte, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		members = append(members, string(key)+":"+string(b))
	}
	for f, v := range []any{q.X, q.Assign, q.Target, q.Evidence} {
		if reflect.ValueOf(v).IsZero() {
			switch rng.IntN(3) {
			case 0:
				continue
			case 1:
				v = nil
			}
		}
		key := fmt.Sprintf("%q", jsonFields[f])
		if rng.IntN(4) == 0 {
			key = fmt.Sprintf(`"\u%04x%s`, jsonFields[f][0], key[2:])
		}
		member([]byte(key), v)
	}
	for i := rng.IntN(4); i > 0; i-- {
		key, _ := json.Marshal(unknownKeys[rng.IntN(len(unknownKeys))] + strconv.Itoa(i))
		member(key, randomValue(rng, 4))
	}
	rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	return []byte("{" + strings.Join(members, ",") + "}")
}

// repairUTF8 replaces each byte of s that is not part of valid UTF-8 with
// U+FFFD, as json.Marshal does.
func repairUTF8(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(r)
	}
	return b.String()
}

func repairKeys(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[repairUTF8(k)] = v
	}
	return out
}

// BenchmarkDecodeRequest times the request decoders on the bodies the
// repository benchmark sends: a full assignment in the CSV form, a classify
// with a target and an "x" array, and a subset query over a small ancestral
// closure, each cycling through 64 sampled events into one reused scratch,
// as a server's pooled requests do.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, netName := range []string{"alarm", "munin"} {
		model, err := netgen.ModelByName(netName)
		if err != nil {
			b.Fatal(err)
		}
		nw := model.Network()
		names := make(map[string]int, nw.Len())
		for i := 0; i < nw.Len(); i++ {
			names[nw.Var(i).Name] = i
		}
		csv, classify, subset := decodeBenchBodies(model)
		sc := new(scratch)
		for _, tc := range []struct {
			kind   string
			bodies [][]byte
			decode func([]byte) error
		}{
			{"csv", csv, func(body []byte) error { _, err := sc.decodeFullAssignment(nw, names, body); return err }},
			{"classify", classify, func(body []byte) error { _, _, err := sc.decodeClassify(nw, names, body); return err }},
			{"subset", subset, func(body []byte) error { _, _, err := sc.decodeSubsetAssignment(nw, names, body); return err }},
		} {
			for _, body := range tc.bodies {
				if err := tc.decode(body); err != nil {
					b.Fatalf("%s %s: %v", netName, tc.kind, err)
				}
			}
			b.Run(netName+"/"+tc.kind, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = tc.decode(tc.bodies[i%len(tc.bodies)])
				}
			})
		}
	}
}

// decodeBenchBodies samples 64 events and writes the three request bodies
// for each.
func decodeBenchBodies(model *bn.Model) (csv, classify, subset [][]byte) {
	nw := model.Network()
	var closures [][]int
	for i := 0; i < nw.Len() && len(closures) < 32; i++ {
		if set := nw.AncestralClosure([]int{i}); len(set) > 1 && len(set) <= 8 {
			closures = append(closures, set)
		}
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(1, 1), 1)
	rng := rand.New(rand.NewPCG(3, 4))
	for k := 0; k < 64; k++ {
		_, x := training.Next()
		values := csvBody(x)
		csv = append(csv, []byte(values))
		classify = append(classify, []byte(fmt.Sprintf(`{"target":%q,"x":[%s]}`, nw.Var(rng.IntN(nw.Len())).Name, values)))
		var sb strings.Builder
		for j, v := range closures[k%len(closures)] {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%q:%d", nw.Var(v).Name, x[v])
		}
		subset = append(subset, []byte(`{"assign":{`+sb.String()+`}}`))
	}
	return csv, classify, subset
}
