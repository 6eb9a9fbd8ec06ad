package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// newAlarmTracker builds an alarm tracker with events ingested events.
func newAlarmTracker(t testing.TB, events int, shards int) (*bn.Model, *core.Tracker) {
	t.Helper()
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25, Sites: 4, Seed: 1, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(4, 0xdead^1), 1)
	var buf []core.Event
	for events > 0 {
		n := events
		if n > 512 {
			n = 512
		}
		buf = training.NextEvents(buf[:0], n)
		tr.UpdateEvents(buf)
		events -= n
	}
	return model, tr
}

// startServer runs a server over src on a loopback port, shut down with the
// test.
func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// net/http counts a connection that was dialed but never carried a
		// request (the shared client transport races dials) as busy for its
		// first 5 s, so a drain can legitimately take that long.
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// post sends body to the endpoint and returns the status and response body.
func post(t testing.TB, addr, endpoint, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+endpoint, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", endpoint, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// resultP decodes the envelope's result.p.
func resultP(t testing.TB, b []byte) float64 {
	t.Helper()
	var env struct {
		Result struct {
			P float64 `json:"p"`
		} `json:"result"`
		Snapshot struct {
			Version   uint64 `json:"version"`
			AgeMicros int64  `json:"age_us"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decoding %s: %v", b, err)
	}
	return env.Result.P
}

// csvBody renders x as the CSV fast-path body.
func csvBody(x []int) string {
	var sb strings.Builder
	for i, v := range x {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	return sb.String()
}

// TestServeMatchesTracker pins the network answers bit-identical
// (math.Float64bits over the JSON round trip, which is exact for float64)
// to in-process tracker queries against the same quiescent state, across
// every endpoint.
func TestServeMatchesTracker(t *testing.T) {
	model, tr := newAlarmTracker(t, 20000, 0)
	nw := model.Network()
	srv := startServer(t, Config{Source: NewTrackerSource(tr)})
	rng := bn.NewRNG(7)

	var x []int
	for q := 0; q < 25; q++ {
		x = stream.RandomAssignment(nw, rng, x)

		// queryprob: CSV and JSON-positional forms agree with the tracker.
		want := tr.QueryProb(x)
		for _, body := range []string{csvBody(x), jsonX(x)} {
			code, b := post(t, srv.Addr(), "/v1/queryprob", body)
			if code != http.StatusOK {
				t.Fatalf("queryprob %q: status %d: %s", body, code, b)
			}
			if got := resultP(t, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("queryprob: got %v want %v", got, want)
			}
		}

		// subsetprob over an ancestrally closed set. The server multiplies
		// members in ascending variable order — its canonical order — so
		// the tracker reference gets the sorted set too.
		target := rng.Intn(nw.Len())
		set := nw.AncestralClosure([]int{target})
		sort.Ints(set)
		assign := make(map[string]int, len(set))
		for _, i := range set {
			assign[nw.Var(i).Name] = x[i]
		}
		body, _ := json.Marshal(map[string]any{"assign": assign})
		code, b := post(t, srv.Addr(), "/v1/subsetprob", string(body))
		if code != http.StatusOK {
			t.Fatalf("subsetprob: status %d: %s", code, b)
		}
		wantSub := tr.QuerySubsetProb(set, x)
		if got := resultP(t, b); math.Float64bits(got) != math.Float64bits(wantSub) {
			t.Fatalf("subsetprob: got %v want %v", got, wantSub)
		}

		// classify.
		cb, _ := json.Marshal(map[string]any{"target": nw.Var(target).Name, "x": x})
		code, b = post(t, srv.Addr(), "/v1/classify", string(cb))
		if code != http.StatusOK {
			t.Fatalf("classify: status %d: %s", code, b)
		}
		var env struct {
			Result struct {
				Value int `json:"value"`
			} `json:"result"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		if want := tr.Classify(target, x); env.Result.Value != want {
			t.Fatalf("classify(%d): got %d want %d", target, env.Result.Value, want)
		}
	}

	// marginal + classifypartial against the tracker's inference.
	name0, name1 := nw.Var(0).Name, nw.Var(1).Name
	code, b := post(t, srv.Addr(), "/v1/marginal", fmt.Sprintf(`{"assign":{%q:1}}`, name0))
	if code != http.StatusOK {
		t.Fatalf("marginal: status %d: %s", code, b)
	}
	want, err := tr.InferMarginal(map[int]int{0: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultP(t, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("marginal: got %v want %v", got, want)
	}
	code, b = post(t, srv.Addr(), "/v1/classifypartial",
		fmt.Sprintf(`{"target":%q,"evidence":{%q:0}}`, name0, name1))
	if code != http.StatusOK {
		t.Fatalf("classifypartial: status %d: %s", code, b)
	}
	var env struct {
		Result struct {
			Value int `json:"value"`
		} `json:"result"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatal(err)
	}
	wantY, err := tr.ClassifyPartial(0, map[int]int{1: 0})
	if err != nil {
		t.Fatal(err)
	}
	if env.Result.Value != wantY {
		t.Fatalf("classifypartial: got %d want %d", env.Result.Value, wantY)
	}
}

func jsonX(x []int) string {
	b, _ := json.Marshal(map[string]any{"x": x})
	return string(b)
}

// TestServeCoordinatorSource runs a small loopback cluster to completion
// and checks the attached server agrees bit-identically with the
// coordinator's own query paths.
func TestServeCoordinatorSource(t *testing.T) {
	events := 20000
	if testing.Short() {
		events = 4000
	}
	cfg := cluster.Config{
		NetName: "alarm", CPTSeed: 1 + 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 4, Events: events, StreamSeed: 1,
	}
	_, co, err := cluster.RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	nw := co.Network()
	srv := startServer(t, Config{Source: NewCoordinatorSource(co)})

	rng := bn.NewRNG(11)
	var x []int
	for q := 0; q < 20; q++ {
		x = stream.RandomAssignment(nw, rng, x)
		code, b := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
		if code != http.StatusOK {
			t.Fatalf("queryprob: status %d: %s", code, b)
		}
		want := co.QueryProb(x)
		if got := resultP(t, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("queryprob: got %v want %v", got, want)
		}
	}
}

// TestServeRequestValidation exercises the hardening: wrong methods,
// oversized bodies (declared and undeclared), malformed and out-of-range
// requests — all rejected without touching a snapshot, with the error
// counter advancing.
func TestServeRequestValidation(t *testing.T) {
	_, tr := newAlarmTracker(t, 2000, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr), MaxBodyBytes: 1 << 12})
	addr := srv.Addr()

	resp, err := http.Get("http://" + addr + "/v1/queryprob")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET queryprob: status %d", resp.StatusCode)
	}

	big := strings.Repeat("9,", 4096)
	if code, _ := post(t, addr, "/v1/queryprob", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", code)
	}

	for _, tc := range []struct{ endpoint, body string }{
		{"/v1/queryprob", ""},
		{"/v1/queryprob", "1,2,3"},                                               // wrong arity
		{"/v1/queryprob", "9,9,9"},                                               // values out of range (and wrong arity)
		{"/v1/queryprob", `{"x":[1]}`},                                           // wrong arity JSON
		{"/v1/queryprob", `{"assign":{"nope":0}}`},                               // unknown variable
		{"/v1/queryprob", `{"assign":{"alarm_0":0}}`},                            // incomplete assignment
		{"/v1/queryprob", `{"x": notjson`},                                       // malformed JSON
		{"/v1/subsetprob", `{"assign":{}}`},                                      // empty subset
		{"/v1/classify", `{"x":[0]}`},                                            // missing target
		{"/v1/classifypartial", `{"target":"alarm_0","evidence":{"alarm_0":0}}`}, // target in evidence
		{"/v1/marginal", `{"assign":{"alarm_0":99}}`},                            // value out of range
		{"/v1/marginal", `{"assign":{"alarm_0":0},"assign":{"alarm_1":0}}`},      // duplicate key
		{"/v1/marginal", `{"Assign":{"alarm_0":0}}`},                             // key matches only up to case
		{"/v1/marginal", `{"assign":{"alarm_0":null}}`},                          // null value
	} {
		code, b := post(t, addr, tc.endpoint, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s %q: status %d (%s), want 400", tc.endpoint, tc.body, code, b)
		}
	}

	// A non-closed subset is rejected: find a variable with parents and
	// assign it without them.
	nw := tr.Network()
	for i := 0; i < nw.Len(); i++ {
		if len(nw.Parents(i)) > 0 {
			body := fmt.Sprintf(`{"assign":{%q:0}}`, nw.Var(i).Name)
			if code, b := post(t, addr, "/v1/subsetprob", body); code != http.StatusBadRequest {
				t.Errorf("non-closed subset: status %d (%s)", code, b)
			}
			break
		}
	}

	if st := srv.Stats(); st.Errors == 0 {
		t.Error("error counter did not advance")
	}
}

// TestServeStatszAndModel covers the observability endpoints: /statsz
// shape, /v1/model round trip (rows normalized), /healthz.
func TestServeStatszAndModel(t *testing.T) {
	_, tr := newAlarmTracker(t, 5000, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr)})
	addr := srv.Addr()

	x := make([]int, tr.Network().Len())
	if code, _ := post(t, addr, "/v1/queryprob", csvBody(x)); code != http.StatusOK {
		t.Fatal("queryprob failed")
	}

	resp, err := http.Get("http://" + addr + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Result struct {
			Vars []struct {
				Name string    `json:"name"`
				Card int       `json:"card"`
				CPT  []float64 `json:"cpt"`
			} `json:"vars"`
		} `json:"result"`
		Snapshot struct {
			Version uint64 `json:"version"`
		} `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(env.Result.Vars) != tr.Network().Len() {
		t.Fatalf("model dump has %d vars, want %d", len(env.Result.Vars), tr.Network().Len())
	}
	if env.Snapshot.Version == 0 {
		t.Error("model dump carries no snapshot version")
	}
	for _, v := range env.Result.Vars {
		for off := 0; off < len(v.CPT); off += v.Card {
			sum := 0.0
			for _, p := range v.CPT[off : off+v.Card] {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: row sums to %v", v.Name, sum)
			}
		}
	}

	// A handler records its latency after writing the response, so the model
	// dump's sample may land a moment after the client has read the body.
	var st Stats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err = http.Get("http://" + addr + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		st = Stats{}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Latency.Count >= 2 || time.Now().After(deadline) {
			break
		}
	}
	if st.Requests < 2 || st.ByEndpoint["queryprob"] != 1 || st.ByEndpoint["model"] != 1 {
		t.Errorf("statsz counters off: %+v", st)
	}
	if st.Latency.Count < 2 || st.Latency.P99Micros < st.Latency.P50Micros {
		t.Errorf("latency histogram off: %+v", st.Latency)
	}
	if st.Snapshot.Version == 0 || st.Snapshot.Acquires == 0 {
		t.Errorf("snapshot stats off: %+v", st.Snapshot)
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "ok\n" {
		t.Errorf("healthz: %q", b)
	}
}

// TestServeDuringParallelIngest hammers the server from several clients
// while DriveParallel ingests on one goroutine per site — the -race proof
// that per-request snapshot sharing, ingest-driven snapshot retirement and
// row recycling coexist. Each client asserts its observed snapshot
// versions are monotone non-decreasing (the consistency contract).
func TestServeDuringParallelIngest(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25, Sites: 4, Seed: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Config{Source: NewTrackerSource(tr), MaxSnapshotAge: 200 * time.Microsecond})

	perSite := 8000
	if testing.Short() {
		perSite = 2000
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			rng := bn.NewRNG(uint64(c) + 100)
			var x []int
			var lastVersion uint64
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				x = stream.RandomAssignment(model.Network(), rng, x)
				resp, err := client.Post("http://"+srv.Addr()+"/v1/queryprob",
					"text/plain", bytes.NewBufferString(csvBody(x)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var env struct {
					Result struct {
						P float64 `json:"p"`
					} `json:"result"`
					Snapshot struct {
						Version uint64 `json:"version"`
					} `json:"snapshot"`
				}
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				if math.IsNaN(env.Result.P) || env.Result.P < 0 {
					t.Errorf("client %d: bad probability %v", c, env.Result.P)
					return
				}
				if env.Snapshot.Version < lastVersion {
					t.Errorf("client %d: snapshot version went backwards: %d -> %d",
						c, lastVersion, env.Snapshot.Version)
					return
				}
				lastVersion = env.Snapshot.Version
			}
		}(c)
	}

	// Ingest in rounds with short gaps so the clients observe several
	// distinct snapshot versions while the stream runs hot between gaps.
	streams := stream.NewSiteTrainings(model, 4, 1)
	for round := 0; round < 8; round++ {
		stream.DriveParallel(tr, streams, perSite/8, 64)
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	if st := srv.Stats(); st.Snapshot.Refreshes < 2 {
		t.Errorf("expected several snapshot refreshes during hot ingest, got %+v", st.Snapshot)
	}
}

// TestServeDuringCoordinatorChurn serves from a live coordinator while its
// sites stream — and crash mid-stream, reconnect and resume — under -race.
func TestServeDuringCoordinatorChurn(t *testing.T) {
	events := 12000
	if testing.Short() {
		events = 3000
	}
	cfg := cluster.Config{
		NetName: "alarm", CPTSeed: 1 + 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 3, Events: events, StreamSeed: 5,
	}
	co, err := cluster.NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := startServer(t, Config{Source: NewCoordinatorSource(co), MaxSnapshotAge: time.Millisecond})

	perSite := events / cfg.Sites
	var siteWG sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		siteWG.Add(1)
		go func(id uint32) {
			defer siteWG.Done()
			// One mid-stream crash, then a clean run that resumes.
			s := cluster.NewSite(id, co.Addr())
			s.CrashAfterEvents = uint64(perSite / 3)
			if _, err := s.Run(); err != cluster.ErrSiteCrashed {
				t.Errorf("site %d: expected crash, got %v", id, err)
				return
			}
			if _, err := cluster.NewSite(id, co.Addr()).Run(); err != nil {
				t.Errorf("site %d: %v", id, err)
			}
		}(uint32(i))
	}

	done := make(chan struct{})
	var queries atomic.Int64
	var clientWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			client := &http.Client{}
			rng := bn.NewRNG(uint64(c) + 33)
			var x []int
			for {
				select {
				case <-done:
					return
				default:
				}
				x = stream.RandomAssignment(co.Network(), rng, x)
				resp, err := client.Post("http://"+srv.Addr()+"/v1/queryprob",
					"text/plain", bytes.NewBufferString(csvBody(x)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				queries.Add(1)
			}
		}(c)
	}

	if _, err := co.Serve(); err != nil {
		t.Fatal(err)
	}
	siteWG.Wait()
	close(done)
	clientWG.Wait()
	if queries.Load() == 0 {
		t.Error("no live queries completed during the churn run")
	}
}

// gatedSource wraps a ModelSource so the first snapshot acquisition
// signals `entered` and then blocks until `release` is closed — it pins a
// request demonstrably in-flight inside a handler, with no timing
// assumptions.
type gatedSource struct {
	ModelSource
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedSource) AcquireSnapshot() (Snapshot, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.ModelSource.AcquireSnapshot()
}

// TestServerShutdownDrains checks Shutdown completes an in-flight request
// before returning and refuses new connections afterwards. The gated
// source holds the request inside the handler while Shutdown runs, so the
// drain is exercised deterministically.
func TestServerShutdownDrains(t *testing.T) {
	_, tr := newAlarmTracker(t, 1000, 0)
	src := &gatedSource{
		ModelSource: NewTrackerSource(tr),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	srv, err := New(Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	x := make([]int, tr.Network().Len())
	finished := make(chan error, 1)
	go func() {
		code, _ := post(t, addr, "/v1/queryprob", csvBody(x))
		if code != http.StatusOK {
			finished <- fmt.Errorf("in-flight request: status %d", code)
			return
		}
		finished <- nil
	}()
	<-src.entered // the request is now inside the handler

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(src.release)
	select {
	case err := <-finished:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request still pending after release")
	}
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request drained")
	}

	if _, err := http.Post("http://"+addr+"/v1/queryprob", "text/plain",
		strings.NewReader(csvBody(x))); err == nil {
		t.Error("request after shutdown unexpectedly succeeded")
	}
}

// TestServePerRequestAcquire covers MaxSnapshotAge < 0: every request
// acquires its own snapshot, so a query issued after an ingest batch sees
// the new version immediately.
func TestServePerRequestAcquire(t *testing.T) {
	model, tr := newAlarmTracker(t, 1000, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr), MaxSnapshotAge: -1})
	x := make([]int, model.Network().Len())

	version := func() uint64 {
		_, b := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
		var env struct {
			Snapshot struct {
				Version uint64 `json:"version"`
			} `json:"snapshot"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		return env.Snapshot.Version
	}
	v1 := version()
	tr.Update(0, stream.RandomAssignment(model.Network(), bn.NewRNG(3), nil))
	v2 := version()
	if v2 <= v1 {
		t.Fatalf("per-request acquire did not observe the ingest: %d -> %d", v1, v2)
	}
}
