package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// The overload/degraded-mode suite: every test here pins one clause of the
// "degrade instead of fail" contract — degraded serving from the last-good
// snapshot, the staleness ceiling, admission shedding, queue deadlines,
// panic containment, and shutdown under adverse clients. Fault injection
// is source-level and switch-driven (no timing assumptions beyond
// wall-clock staleness, which is the property under test).

// flakySource wraps a ModelSource with a switchable failure mode, the
// serve-layer stand-in for a crashed coordinator.
type flakySource struct {
	ModelSource
	failing atomic.Bool
}

func (f *flakySource) AcquireSnapshot() (Snapshot, error) {
	if f.failing.Load() {
		return nil, errors.New("injected source failure")
	}
	return f.ModelSource.AcquireSnapshot()
}

// queryEnvelope decodes one query response for the assertions below.
type queryEnvelope struct {
	Result struct {
		P float64 `json:"p"`
	} `json:"result"`
	Snapshot struct {
		Version   uint64 `json:"version"`
		AgeMicros int64  `json:"age_us"`
		Degraded  bool   `json:"degraded"`
	} `json:"snapshot"`
	Error string `json:"error"`
}

func queryOnce(t testing.TB, addr string, x []int) (int, queryEnvelope) {
	t.Helper()
	code, b := post(t, addr, "/v1/queryprob", csvBody(x))
	var env queryEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decoding %q: %v", b, err)
	}
	return code, env
}

func healthState(t testing.TB, addr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, strings.TrimSpace(string(b))
}

// TestServeDegradedMode: a failing source flips the server into degraded
// mode — answers keep coming from the last-good snapshot, tagged degraded
// with its (unchanged) version; /healthz reports "degraded" at 200; and
// the moment the source recovers, fresh serving resumes with a monotone
// version step.
func TestServeDegradedMode(t *testing.T) {
	model, tr := newAlarmTracker(t, 2000, 0)
	src := &flakySource{ModelSource: NewTrackerSource(tr)}
	srv := startServer(t, Config{Source: src, MaxSnapshotAge: -1})
	x := make([]int, model.Network().Len())

	code, env := queryOnce(t, srv.Addr(), x)
	if code != http.StatusOK || env.Snapshot.Degraded {
		t.Fatalf("healthy query: code %d degraded %v", code, env.Snapshot.Degraded)
	}
	fresh := env.Snapshot.Version

	src.failing.Store(true)
	code, env = queryOnce(t, srv.Addr(), x)
	if code != http.StatusOK {
		t.Fatalf("degraded query: code %d (%s)", code, env.Error)
	}
	if !env.Snapshot.Degraded {
		t.Fatal("degraded query not tagged degraded")
	}
	if env.Snapshot.Version != fresh {
		t.Fatalf("degraded version %d, want last-good %d", env.Snapshot.Version, fresh)
	}
	if hcode, state := healthState(t, srv.Addr()); hcode != http.StatusOK || state != HealthDegraded {
		t.Fatalf("healthz while degraded: %d %q", hcode, state)
	}
	st := srv.Stats()
	if !st.Degraded.Active || st.Degraded.Served == 0 || st.Degraded.RefreshErrors == 0 ||
		st.Degraded.LastError == "" || st.Health != HealthDegraded {
		t.Fatalf("degraded stats off: %+v (health %q)", st.Degraded, st.Health)
	}

	// Recovery: the tracker advanced while the source was failing; the
	// first healthy refresh serves the new version, untagged.
	tr.Update(0, stream.RandomAssignment(model.Network(), bn.NewRNG(3), nil))
	src.failing.Store(false)
	code, env = queryOnce(t, srv.Addr(), x)
	if code != http.StatusOK || env.Snapshot.Degraded {
		t.Fatalf("recovered query: code %d degraded %v", code, env.Snapshot.Degraded)
	}
	if env.Snapshot.Version <= fresh {
		t.Fatalf("recovered version %d did not advance past %d", env.Snapshot.Version, fresh)
	}
	if hcode, state := healthState(t, srv.Addr()); hcode != http.StatusOK || state != HealthOK {
		t.Fatalf("healthz after recovery: %d %q", hcode, state)
	}
}

// TestServeDegradedCeiling: past MaxDegradedAge the last-good snapshot is
// too stale to serve — queries get 503 + Retry-After instead of an
// arbitrarily old estimate, and /healthz flips to "unavailable".
func TestServeDegradedCeiling(t *testing.T) {
	model, tr := newAlarmTracker(t, 1000, 0)
	src := &flakySource{ModelSource: NewTrackerSource(tr)}
	srv := startServer(t, Config{Source: src, MaxSnapshotAge: -1, MaxDegradedAge: 50 * time.Millisecond})
	x := make([]int, model.Network().Len())

	if code, _ := queryOnce(t, srv.Addr(), x); code != http.StatusOK {
		t.Fatalf("healthy query: code %d", code)
	}
	src.failing.Store(true)
	if code, env := queryOnce(t, srv.Addr(), x); code != http.StatusOK || !env.Snapshot.Degraded {
		t.Fatalf("within-ceiling query: code %d degraded %v", code, env.Snapshot.Degraded)
	}

	time.Sleep(120 * time.Millisecond) // let the last-good snapshot age past the ceiling
	resp, err := http.Post("http://"+srv.Addr()+"/v1/queryprob", "text/plain", strings.NewReader(csvBody(x)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("past-ceiling query: code %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("past-ceiling 503 carries no Retry-After")
	}
	if hcode, state := healthState(t, srv.Addr()); hcode != http.StatusServiceUnavailable || state != HealthUnavailable {
		t.Fatalf("healthz past ceiling: %d %q", hcode, state)
	}
	if st := srv.Stats(); st.Degraded.Unavailable == 0 {
		t.Errorf("unavailable counter did not advance: %+v", st.Degraded)
	}
}

// TestServeDegradedDisabled: MaxDegradedAge < 0 turns degraded serving
// off — the first refresh failure is an immediate 503 even though a
// last-good snapshot exists.
func TestServeDegradedDisabled(t *testing.T) {
	model, tr := newAlarmTracker(t, 1000, 0)
	src := &flakySource{ModelSource: NewTrackerSource(tr)}
	srv := startServer(t, Config{Source: src, MaxSnapshotAge: -1, MaxDegradedAge: -1})
	x := make([]int, model.Network().Len())

	if code, _ := queryOnce(t, srv.Addr(), x); code != http.StatusOK {
		t.Fatal("healthy query failed")
	}
	src.failing.Store(true)
	if code, env := queryOnce(t, srv.Addr(), x); code != http.StatusServiceUnavailable {
		t.Fatalf("query with degraded serving disabled: code %d (%s)", code, env.Error)
	}
}

// TestServeNeverHadSnapshot: a source that fails from the first request
// leaves nothing to degrade to — clean 503s and an "unavailable" health
// state, not a crash.
func TestServeNeverHadSnapshot(t *testing.T) {
	model, tr := newAlarmTracker(t, 500, 0)
	src := &flakySource{ModelSource: NewTrackerSource(tr)}
	src.failing.Store(true)
	srv := startServer(t, Config{Source: src})
	x := make([]int, model.Network().Len())

	if code, env := queryOnce(t, srv.Addr(), x); code != http.StatusServiceUnavailable {
		t.Fatalf("query with no snapshot: code %d (%s)", code, env.Error)
	}
	if hcode, state := healthState(t, srv.Addr()); hcode != http.StatusServiceUnavailable || state != HealthUnavailable {
		t.Fatalf("healthz with no snapshot: %d %q", hcode, state)
	}
}

// TestServeCoordinatorClosedDegrades is the headline scenario end to end:
// an abrupt mid-run coordinator Close (kill -9 semantics) flips the
// attached server into degraded mode — same last-good answers, tagged,
// instead of 500s. (A coordinator whose run *completed* keeps Err() nil
// by design: its final estimates stay servable as fresh.) The run here
// can never finish — one declared site never joins — so Close is always a
// mid-run kill, deterministically.
func TestServeCoordinatorClosedDegrades(t *testing.T) {
	cfg := cluster.Config{
		NetName: "alarm", CPTSeed: 1 + 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 2, Events: 4000, StreamSeed: 2,
	}
	co, err := cluster.NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	serveDone := make(chan error, 1)
	go func() {
		_, err := co.Serve()
		serveDone <- err
	}()
	// Only site 0 joins; its stream lands while site 1's absence keeps the
	// run (and finish(nil)) from ever happening.
	siteDone := make(chan struct{})
	go func() {
		defer close(siteDone)
		site := cluster.NewSite(0, co.Addr())
		// The coordinator never comes back: give up at the first refused dial
		// instead of backing off for seconds past the end of the test.
		site.DialAttempts, site.RetryBase = 1, time.Millisecond
		site.Run()
	}()
	defer func() {
		co.Close() // whatever path the test leaves by, the site's peer is dead before the join
		<-siteDone
	}()

	srv := startServer(t, Config{Source: NewCoordinatorSource(co), MaxSnapshotAge: -1})
	x := make([]int, co.Network().Len())

	// Wait until site 0's data is visible: a fresh 200 with version > 0.
	var lastFresh queryEnvelope
	waitFor(t, "live mid-run data to arrive", func() bool {
		code, env := queryOnce(t, srv.Addr(), x)
		if code != http.StatusOK || env.Snapshot.Degraded {
			t.Fatalf("live query: code %d degraded %v", code, env.Snapshot.Degraded)
		}
		lastFresh = env
		return env.Snapshot.Version > 0
	})
	if err := co.Err(); err != nil {
		t.Fatalf("live coordinator reports Err %v, want nil", err)
	}

	co.Close() // kill -9: Serve returns ErrCoordinatorClosed
	if err := <-serveDone; err != cluster.ErrCoordinatorClosed {
		t.Fatalf("killed Serve returned %v", err)
	}
	if err := co.Err(); err == nil {
		t.Fatal("closed coordinator reports nil Err")
	}
	code, env := queryOnce(t, srv.Addr(), x)
	if code != http.StatusOK || !env.Snapshot.Degraded {
		t.Fatalf("query against closed coordinator: code %d degraded %v (%s)", code, env.Snapshot.Degraded, env.Error)
	}
	if env.Snapshot.Version != lastFresh.Snapshot.Version ||
		math.Float64bits(env.Result.P) != math.Float64bits(lastFresh.Result.P) {
		t.Fatalf("degraded answer (v%d, %v) != last-good (v%d, %v)",
			env.Snapshot.Version, env.Result.P, lastFresh.Snapshot.Version, lastFresh.Result.P)
	}
}

// TestServeAdmissionShed: with the concurrency slot and the wait queue
// both full, the next request is shed immediately with 429 + Retry-After
// — it never waits and never touches the snapshot path.
func TestServeAdmissionShed(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	src := &gatedSource{
		ModelSource: NewTrackerSource(tr),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	srv := startServer(t, Config{
		Source: src, MaxSnapshotAge: -1, MaxConcurrent: 1, MaxQueue: 1,
	})
	x := make([]int, tr.Network().Len())

	results := make(chan int, 2)
	go func() { // A: admitted, pinned inside the source
		code, _ := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
		results <- code
	}()
	<-src.entered
	go func() { // B: takes the one queue slot
		code, _ := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
		results <- code
	}()
	waitFor(t, "request queued at the gate", func() bool {
		return srv.Stats().Admission.Queued == 1
	})

	// C: gate and queue both full — shed synchronously.
	resp, err := http.Post("http://"+srv.Addr()+"/v1/queryprob", "text/plain", strings.NewReader(csvBody(x)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: code %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	close(src.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request finished with %d", code)
		}
	}
	if st := srv.Stats(); st.Admission.Shed != 1 {
		t.Errorf("shed counter = %d, want 1", st.Admission.Shed)
	}
}

// TestServeDeadlineExceeded: the per-request deadline is honored in both
// wait states — queued at the admission gate, and waiting for the
// single-flight snapshot refresh — yielding 503, never a hang.
func TestServeDeadlineExceeded(t *testing.T) {
	for _, tc := range []struct {
		name          string
		maxConcurrent int
	}{
		{"queued-at-gate", 1}, // B waits for A's admission slot
		{"refresh-wait", 4},   // B admitted, waits for A's refresh slot
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, tr := newAlarmTracker(t, 500, 0)
			src := &gatedSource{
				ModelSource: NewTrackerSource(tr),
				entered:     make(chan struct{}),
				release:     make(chan struct{}),
			}
			srv := startServer(t, Config{
				Source: src, MaxSnapshotAge: -1,
				MaxConcurrent: tc.maxConcurrent, MaxQueue: 4,
				RequestTimeout: 150 * time.Millisecond,
			})
			x := make([]int, tr.Network().Len())

			aDone := make(chan int, 1)
			go func() { // A: pinned inside the source past everyone's deadline
				code, _ := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
				aDone <- code
			}()
			<-src.entered

			code, env := queryOnce(t, srv.Addr(), x) // B: times out waiting
			if code != http.StatusServiceUnavailable {
				t.Fatalf("deadline-bound request: code %d (%s)", code, env.Error)
			}
			if st := srv.Stats(); st.Admission.DeadlineExceeded == 0 {
				t.Errorf("deadline counter did not advance: %+v", st.Admission)
			}

			close(src.release)
			if code := <-aDone; code != http.StatusOK {
				t.Errorf("pinned request finished with %d", code)
			}
		})
	}
}

// panicSource returns snapshots whose Factor panics while the switch is
// on — the pathological-handler case the recovery middleware contains.
type panicSource struct {
	ModelSource
	panicking atomic.Bool
}

type panicSnap struct {
	Snapshot
	panicking *atomic.Bool
}

func (p panicSnap) Factor(i, v, pidx int) float64 {
	if p.panicking.Load() {
		panic("injected factor panic")
	}
	return p.Snapshot.Factor(i, v, pidx)
}

func (s *panicSource) AcquireSnapshot() (Snapshot, error) {
	snap, err := s.ModelSource.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	return panicSnap{Snapshot: snap, panicking: &s.panicking}, nil
}

// TestServePanicRecovery: a panicking handler yields one 500 and the
// server keeps serving — no wedged admission slot, no leaked snapshot
// reference, no dead process.
func TestServePanicRecovery(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	src := &panicSource{ModelSource: NewTrackerSource(tr)}
	srv := startServer(t, Config{Source: src, MaxSnapshotAge: -1, MaxConcurrent: 1})
	x := make([]int, tr.Network().Len())

	src.panicking.Store(true)
	for i := 0; i < 3; i++ {
		if code, env := queryOnce(t, srv.Addr(), x); code != http.StatusInternalServerError {
			t.Fatalf("panicking query %d: code %d (%s)", i, code, env.Error)
		}
	}
	src.panicking.Store(false)
	if code, _ := queryOnce(t, srv.Addr(), x); code != http.StatusOK {
		t.Fatalf("server did not survive the panics: code %d", code)
	}
	if st := srv.Stats(); st.Panics != 3 {
		t.Errorf("panic counter = %d, want 3", st.Panics)
	}
}

// brokenModelSource returns snapshots whose Model fails — a fault of the
// snapshot, not of the request.
type brokenModelSource struct{ ModelSource }

type brokenModelSnap struct{ Snapshot }

func (brokenModelSnap) Model() (*bn.Model, error) {
	return nil, errors.New("injected model failure")
}

func (s brokenModelSource) AcquireSnapshot() (Snapshot, error) {
	snap, err := s.ModelSource.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	return brokenModelSnap{snap}, nil
}

// TestServeModelFailureIsServerError: when the snapshot's own Model fails,
// every endpoint that needs the model blames the server (500) — a well-formed
// request is not a bad request — while malformed requests against the same
// snapshot are still 400 and the factor endpoints are unaffected.
func TestServeModelFailureIsServerError(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	srv := startServer(t, Config{Source: brokenModelSource{NewTrackerSource(tr)}})
	nw := tr.Network()
	a, b := nw.Var(0).Name, nw.Var(1).Name
	for endpoint, body := range map[string]string{
		"/v1/classifypartial": fmt.Sprintf(`{"target":%q,"evidence":{%q:0}}`, a, b),
		"/v1/marginal":        fmt.Sprintf(`{"assign":{%q:0}}`, a),
	} {
		if code, resp := post(t, srv.Addr(), endpoint, body); code != http.StatusInternalServerError {
			t.Errorf("%s with a failing model: status %d (%s), want 500", endpoint, code, resp)
		}
		if code, resp := post(t, srv.Addr(), endpoint, `{"nonsense":1}`); code != http.StatusBadRequest {
			t.Errorf("%s malformed with a failing model: status %d (%s), want 400", endpoint, code, resp)
		}
	}
	resp, err := http.Get("http://" + srv.Addr() + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("/v1/model with a failing model: status %d, want 500", resp.StatusCode)
	}
	if code, _ := queryOnce(t, srv.Addr(), make([]int, nw.Len())); code != http.StatusOK {
		t.Errorf("queryprob with a failing model: status %d, want 200", code)
	}
}

// countingSource audits the acquire/release balance through its wrapped
// source, so tests can assert no snapshot reference leaks.
type countingSource struct {
	ModelSource
	acquired atomic.Int64
	released atomic.Int64
}

type countedSnap struct {
	Snapshot
	released *atomic.Int64
}

func (c countedSnap) Release() {
	c.released.Add(1)
	c.Snapshot.Release()
}

func (s *countingSource) AcquireSnapshot() (Snapshot, error) {
	snap, err := s.ModelSource.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	s.acquired.Add(1)
	return countedSnap{Snapshot: snap, released: &s.released}, nil
}

// TestServerShutdownRacesRefresh: Shutdown runs while a request is
// mid-refresh inside the source. The drain must wait for the request, the
// cache release must not race the refresh publishing its snapshot, and
// every acquired snapshot must be released exactly once (checked by
// audit; the interleaving itself is checked by -race).
func TestServerShutdownRacesRefresh(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	gated := &gatedSource{
		ModelSource: NewTrackerSource(tr),
		entered:     make(chan struct{}),
		release:     make(chan struct{}),
	}
	src := &countingSource{ModelSource: gated}
	srv, err := New(Config{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	x := make([]int, tr.Network().Len())

	reqDone := make(chan int, 1)
	go func() {
		code, _ := post(t, srv.Addr(), "/v1/queryprob", csvBody(x))
		reqDone <- code
	}()
	<-gated.entered // the refresh is now in flight

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned (%v) with a refresh in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gated.release)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d", code)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if a, r := src.acquired.Load(), src.released.Load(); a != r || a == 0 {
		t.Errorf("snapshot audit: %d acquired, %d released", a, r)
	}
	if st := srv.Stats(); st.Health != HealthDraining {
		t.Errorf("health after shutdown = %q, want %q", st.Health, HealthDraining)
	}
}

// TestServerShutdownStalledClient: a client that sends headers and then
// stalls mid-body would pin the drain forever without a read timeout;
// with Config.ReadTimeout set, the server times the read out and Shutdown
// completes well inside its budget.
func TestServerShutdownStalledClient(t *testing.T) {
	_, tr := newAlarmTracker(t, 500, 0)
	srv, err := New(Config{
		Source:      NewTrackerSource(tr),
		ReadTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a body and never send it: the handler blocks in readBody.
	if _, err := fmt.Fprintf(conn, "POST /v1/queryprob HTTP/1.1\r\nHost: x\r\nContent-Length: 64\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the handler to admit the stalled request", func() bool {
		return srv.Stats().Admission.InFlight == 1
	})

	started := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with stalled client: %v", err)
	}
	if elapsed := time.Since(started); elapsed > 5*time.Second {
		t.Errorf("shutdown took %v; the stalled client pinned the drain", elapsed)
	}
}

// TestSwappableSourceMonotoneVersions: swapping in a back end with a
// lower raw version (a coordinator restored from checkpoint) must not
// move served versions backwards, and a shape-incompatible replacement is
// rejected.
func TestSwappableSourceMonotoneVersions(t *testing.T) {
	_, big := newAlarmTracker(t, 5000, 0)  // high version
	_, small := newAlarmTracker(t, 100, 0) // low version: the "restored" back end

	sw, err := NewSwappableSource(NewTrackerSource(big))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sw.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	vBig := snap.Version()
	snap.Release()

	raw, err := NewTrackerSource(small).AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	vSmallRaw := raw.Version()
	raw.Release()
	if vSmallRaw >= vBig {
		t.Fatalf("test premise broken: raw replacement version %d >= %d", vSmallRaw, vBig)
	}

	if err := sw.Swap(NewTrackerSource(small)); err != nil {
		t.Fatal(err)
	}
	snap, err = sw.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.Version() < vBig {
		t.Fatalf("version went backwards across swap: %d < %d", snap.Version(), vBig)
	}
	// Factors pass through the offset wrapper untouched.
	direct, err := NewTrackerSource(small).AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Release()
	if got, want := snap.Factor(0, 0, 0), direct.Factor(0, 0, 0); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("offset snapshot factor %v != raw %v", got, want)
	}

	other, err := netgen.ModelByName("hepar2")
	if err != nil {
		t.Fatal(err)
	}
	otherTr, err := core.NewTracker(other.Network(), core.Config{
		Strategy: core.Uniform, Eps: 0.1, Delta: 0.25, Sites: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Swap(NewTrackerSource(otherTr)); err == nil {
		t.Fatal("Swap accepted a different network")
	}
}

// waitFor polls cond (serving-side counters are updated asynchronously to
// the client's view) with a hard deadline.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
