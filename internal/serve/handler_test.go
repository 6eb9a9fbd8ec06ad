package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// handlerRig drives a Server's Handler in process with one request, one
// response writer and one body, all reset between calls, so what a call
// allocates is what the server allocates.
type handlerRig struct {
	h    http.Handler
	req  *http.Request
	body resettableBody
	w    reusableWriter
}

// newHandlerRig serves a 2 000-event alarm tracker; its snapshot is acquired
// once and then shared, so a call never rebuilds one.
func newHandlerRig(t testing.TB) *handlerRig {
	t.Helper()
	_, tr := newAlarmTracker(t, 2000, 0)
	srv, err := New(Config{Source: NewTrackerSource(tr), MaxSnapshotAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	rig := &handlerRig{h: srv.Handler(), req: req}
	rig.w.hdr = make(http.Header)
	req.Body = &rig.body
	return rig
}

// do POSTs body to the endpoint and returns the status code; the response
// body is in rig.w.buf until the next call.
func (rig *handlerRig) do(endpoint string, body []byte) int {
	rig.body.b, rig.body.off = body, 0
	rig.req.URL.Path = endpoint
	rig.req.ContentLength = int64(len(body))
	clear(rig.w.hdr)
	rig.w.code = 0
	rig.w.buf.Reset()
	rig.h.ServeHTTP(&rig.w, rig.req)
	return rig.w.code
}

type resettableBody struct {
	b   []byte
	off int
}

func (r *resettableBody) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func (r *resettableBody) Close() error { return nil }

type reusableWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *reusableWriter) Header() http.Header { return w.hdr }

func (w *reusableWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *reusableWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

// handlerBodies is the request mix of the repository benchmark on alarm: 64
// sampled events, each as a CSV queryprob, a subsetprob over a small
// ancestral closure and a classify with an "x" array.
func handlerBodies(t testing.TB) map[string][][]byte {
	t.Helper()
	model, _ := newAlarmTracker(t, 0, 0)
	csv, classify, subset := decodeBenchBodies(model)
	return map[string][][]byte{"queryprob": csv, "subsetprob": subset, "classify": classify}
}

// BenchmarkServeHandler times one query through Handler — routing, the
// admission gate, the body read, the decode, the query kernel on a shared
// snapshot and the response encode — without the HTTP server or a socket.
func BenchmarkServeHandler(b *testing.B) {
	rig := newHandlerRig(b)
	bodies := handlerBodies(b)
	for _, endpoint := range []string{"queryprob", "subsetprob", "classify"} {
		path := "/v1/" + endpoint
		for _, body := range bodies[endpoint] {
			if code := rig.do(path, body); code != http.StatusOK {
				b.Fatalf("%s %s: %d %s", endpoint, body, code, rig.w.buf.Bytes())
			}
		}
		b.Run(endpoint, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rig.do(path, bodies[endpoint][i%len(bodies[endpoint])])
			}
		})
	}
}

// nanSource returns snapshots whose every Factor is NaN, following
// panicSource: a model whose answers have no JSON encoding.
type nanSource struct{ ModelSource }

type nanSnap struct{ Snapshot }

func (nanSnap) Factor(i, v, pidx int) float64 { return math.NaN() }

func (s nanSource) AcquireSnapshot() (Snapshot, error) {
	snap, err := s.ModelSource.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	return nanSnap{snap}, nil
}

// TestServeNonFiniteAnswerIsServerError: an answer JSON cannot carry is a 500
// with a JSON error body and counts as an error, never a 200 with an empty
// body.
func TestServeNonFiniteAnswerIsServerError(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: nanSource{NewTrackerSource(tr)}})
	code, body := post(t, srv.Addr(), "/v1/queryprob", csvBody(make([]int, tr.Network().Len())))
	if code != http.StatusInternalServerError {
		t.Fatalf("NaN answer: status %d (%s), want 500", code, body)
	}
	var env struct{ Error string }
	if err := json.Unmarshal(body, &env); err != nil || !strings.Contains(env.Error, "NaN") {
		t.Errorf("NaN answer: body %q (%v), want a JSON error naming NaN", body, err)
	}
	if st := srv.Stats(); st.Errors != 1 {
		t.Errorf("errors counter = %d, want 1", st.Errors)
	}
}

// FuzzEnvelope holds the one-pass answer writer to json.Encoder byte for
// byte, for any probability, snapshot provenance and class value; a value
// encoding/json refuses (NaN, ±Inf) the writer must refuse too.
func FuzzEnvelope(f *testing.F) {
	minNormal := 0x1p-1022
	for _, p := range []float64{
		0, math.Copysign(0, -1), 0.5, -1,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, // 'f' / 'e' switch below
		1e21, math.Nextafter(1e21, 0), -1e21, // 'f' / 'e' switch above
		math.SmallestNonzeroFloat64, math.Nextafter(minNormal, 0), minNormal,
		math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), // no JSON encoding
	} {
		f.Add(p, uint64(7), int64(1234), uint64(0), false, 3)
	}
	f.Add(0.25, uint64(math.MaxUint64), int64(math.MinInt64), uint64(math.MaxUint64), true, math.MinInt)
	f.Add(1.0, uint64(0), int64(math.MaxInt64), uint64(1), false, math.MaxInt)
	f.Fuzz(func(t *testing.T, p float64, version uint64, age int64, epoch uint64, degraded bool, value int) {
		checkEnvelope(t, p, value, snapInfo{Version: version, AgeMicros: age, StructureEpoch: epoch, Degraded: degraded})
	})
}

// TestAppendEnvelopeMatchesEncoder runs the FuzzEnvelope check over 20 000
// random float64 bit patterns, which reach every exponent.
func TestAppendEnvelopeMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20000; i++ {
		info := snapInfo{Version: rng.Uint64(), AgeMicros: int64(rng.Uint64()), Degraded: i%2 == 0}
		if i%3 == 0 {
			info.StructureEpoch = rng.Uint64N(8)
		}
		checkEnvelope(t, math.Float64frombits(rng.Uint64()), int(rng.Uint64()), info)
	}
}

func checkEnvelope(t *testing.T, p float64, value int, info snapInfo) {
	t.Helper()
	for _, result := range []any{probResult{P: p}, classifyResult{Value: value}} {
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(envelope{Result: result, Snapshot: info})
		got, err := appendEnvelope([]byte("prefix"), result, info)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%#v: error %v, encoding/json %v", result, err, wantErr)
		}
		if err == nil && (string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want.Bytes())) {
			t.Fatalf("%#v, %+v:\n got %q\nwant %q", result, info, got, want.Bytes())
		}
	}
}

// TestDecodedQueryDoesNotAliasBody: a body is read into a pooled buffer that
// the answer is then written over, so nothing decoded may point into it. The
// decoders return indices and values; the names they resolve come from
// decodeJSON, whose strings must survive the body being overwritten.
func TestDecodedQueryDoesNotAliasBody(t *testing.T) {
	const src = `{"target":"alarm_0","assign":{"alarm_1":1,"al\u0061rm_2":0},"evidence":{"alarm_3":2},"x":[1,2]}`
	want, err := decodeJSON([]byte(src), 37)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(src)
	got, err := decodeJSON(body, 37)
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("overwriting the body changed the decoded query: %+v, want %+v", got, want)
	}
}
