// Package serve exposes a continuously trained model as a network query
// service: an HTTP/JSON front end answering QueryProb, QuerySubsetProb,
// Classify, ClassifyPartial, InferMarginal and EstimatedModel from
// immutable model snapshots, backed by an in-process core.Tracker or a
// live cluster.Coordinator through the same ModelSource interface — the
// user-facing half of the paper's query-at-any-time model: the sites
// train, the coordinator tracks, the server answers.
//
// Endpoints (POST unless noted): /v1/queryprob, /v1/subsetprob,
// /v1/classify, /v1/classifypartial, /v1/marginal, GET /v1/model, plus
// GET /statsz (qps, snapshot version/age, admission/degraded counters,
// latency histogram) and GET /healthz. See decode.go for the request
// shapes.
//
// # Snapshot-consistency contract
//
// Every response is computed from exactly ONE immutable snapshot: the
// request acquires a snapshot reference, reads all its factors from that
// snapshot, and releases it. A response therefore never mixes counter
// states from before and after a concurrent ingest flush, and ingestion
// never blocks on a slow reader — the tracker's snapshots are refcounted,
// so an ingest burst simply retires the served snapshot, which is
// recycled when its last reader releases it. Every reply carries the
// snapshot's version (monotone non-decreasing) and age in the "snapshot"
// field, so a client knows exactly how fresh its answer is.
//
// Config.MaxSnapshotAge bounds staleness: the server shares one acquired
// snapshot across requests for at most that long (default 5ms) before
// re-acquiring. This also bounds the rebuild rate under a query hammer —
// a munin-scale rebuild bulk-reads 123 140 counters
// (counter.Bank.EstimateRange), and acquiring per request would rebuild
// per request whenever ingest runs hot. The server refreshes ahead: a
// request that finds the shared snapshot older than MaxSnapshotAge/2 starts
// one background refresh through the refresh slot and is answered from the
// cached snapshot, so under steady load no request waits for a rebuild; a
// request that finds it older than MaxSnapshotAge waits for the refresh as
// before. Set it negative to re-acquire on every request (strict
// freshness, same answers a direct Tracker query would give at that
// instant; no refresh ahead).
//
// # Degraded mode
//
// The server degrades instead of failing. When a snapshot refresh fails
// (the coordinator behind the source was closed or crashed), queries keep
// answering from the last-good snapshot, tagged "degraded": true with its
// version and age, until the snapshot is older than Config.MaxDegradedAge
// — the hard staleness ceiling, past which queries return 503 with a
// Retry-After header rather than silently serve arbitrarily stale
// estimates. Every refresh attempt re-probes the source, so the moment a
// replacement back end appears (see SwappableSource) fresh serving
// resumes with no restart; versions stay monotone across the whole
// failover. GET /healthz reports the state machine — "ok", "degraded"
// (failing source, last-good within the ceiling, still 200), "draining"
// (Shutdown in progress, 503) or "unavailable" (no servable snapshot,
// 503) — and /statsz counts refresh errors, degraded responses and
// unavailable rejections.
//
// # Admission control
//
// A concurrency-limited admission gate fronts the query endpoints:
// Config.MaxConcurrent requests run at once, Config.MaxQueue more wait in
// a bounded queue, and everything beyond that is shed immediately with
// 429 + Retry-After — under overload the server sheds the excess to keep
// latency bounded for what it admits instead of collapsing for everyone
// (BenchmarkServeOverload measures exactly this). Each request carries a
// Config.RequestTimeout deadline, counted from its arrival and derived from
// its own context, that is honored while queued at the gate and while
// waiting on a snapshot refresh; deadline expiry yields 503, and so does a
// client that hangs up while its request waits (Start's loop reads the
// connection while a request waits, and only then). The deadline's context
// and timer are created only when a request waits: one that finds a free
// slot and a fresh snapshot creates neither. /statsz and /healthz
// bypass the gate so the server stays observable under overload, and a
// panic-recovery middleware turns a panicking handler into a 500 without
// taking the process down.
//
// # Hardening
//
// Request bodies are read into pooled buffers, bounded by
// Config.MaxBodyBytes with the declared length checked before any read and a
// MaxBytesReader backstopping undeclared (chunked) bodies — the same
// length-validate-before-allocating standard as the cluster's frame
// decoders. The request decoders read a body in one pass and refuse a
// positional assignment (CSV or "x") at its (n+1)-th value on an n-variable
// network, so what they allocate for one is bounded by the network, not by
// the body (they are fuzzed against encoding/json: FuzzServeRequest). Every
// decoded name and value is validated against the network, subset queries
// must be ancestrally closed, and Shutdown closes idle connections and
// drains in-flight requests before releasing the cached snapshot.
//
// Start serves HTTP/1.1 from its own keep-alive loop (conn.go): one goroutine
// per connection parses each request in place (request.go) into one reused
// http.Request, keeping of the header only Host, Content-Length,
// Transfer-Encoding, Connection and Expect, runs Handler into a buffered
// writer and sends status line, headers and body in one write, with no
// goroutine per request; a warm query allocates nothing in the loop
// (TestConnRequestAllocs). The parser accepts and refuses what
// http.ReadRequest does and frames bodies as it does (FuzzReadRequest). The
// loop keeps http.Server's limits: a header block over
// http.DefaultMaxHeaderBytes is 431, a malformed request 400, an unread
// chunked body is discarded up to 256 KiB before the connection is reused,
// and the read-header, read, write and idle timeouts have http.Server's
// meaning, so a stalled client cannot hold a connection (or a drain) open
// indefinitely. A declared body the handler left unread whose rest has not
// arrived closes the connection after the reply rather than wait for it. It
// also answers "Expect: 100-continue", HEAD, "Connection: close" and
// HTTP/1.0; FuzzServeConn holds it to replies that parse. Handler routes by
// exact path: it does not redirect an unclean path, speak HTTP/2, sniff a
// Content-Type, or cancel a request's context while its handler computes
// (docs/removed.md).
//
// See examples/serving for an end-to-end run: a TCP cluster training
// while an attached server answers a closed-loop client mix.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
)

// Defaults for Config zero values.
const (
	DefaultMaxBodyBytes      = 1 << 20
	DefaultMaxSnapshotAge    = 5 * time.Millisecond
	DefaultMaxDegradedAge    = 2 * time.Minute
	DefaultMaxConcurrent     = 64
	DefaultRequestTimeout    = 10 * time.Second
	DefaultReadHeaderTimeout = 10 * time.Second
	DefaultWriteTimeout      = 30 * time.Second
	DefaultIdleTimeout       = 2 * time.Minute
)

// Health states reported by GET /healthz and Stats.Health.
const (
	HealthOK          = "ok"          // fresh serving (200)
	HealthDegraded    = "degraded"    // source failing, last-good within MaxDegradedAge (200)
	HealthDraining    = "draining"    // Shutdown in progress (503)
	HealthUnavailable = "unavailable" // no servable snapshot (503)
)

// Config parameterizes a Server. Duration and count fields follow one
// convention: zero means the package default, negative means disabled.
type Config struct {
	// Source is the model back end (required): NewTrackerSource,
	// NewCoordinatorSource, or a SwappableSource wrapping either.
	Source ModelSource
	// MaxBodyBytes caps request bodies (0 = DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxSnapshotAge is how long one acquired snapshot may be shared
	// across requests (0 = DefaultMaxSnapshotAge, negative = re-acquire
	// per request). See the package comment.
	MaxSnapshotAge time.Duration
	// MaxDegradedAge is the hard staleness ceiling for degraded-mode
	// serving: when refreshes fail, the last-good snapshot keeps
	// answering (tagged degraded) until it is older than this, after
	// which queries get 503 + Retry-After (0 = DefaultMaxDegradedAge,
	// negative = degraded serving disabled: any refresh failure is an
	// immediate 503).
	MaxDegradedAge time.Duration
	// MaxConcurrent bounds requests inside the query handlers at once
	// (0 = DefaultMaxConcurrent, negative = unlimited, no gate).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an admission slot; beyond it
	// requests are shed with 429 (0 = 2×MaxConcurrent, negative = no
	// queue: shed as soon as MaxConcurrent is reached).
	MaxQueue int
	// RequestTimeout is the per-request deadline, honored while queued
	// at the admission gate and while waiting on a snapshot refresh
	// (0 = DefaultRequestTimeout, negative = none).
	RequestTimeout time.Duration
	// ReadHeaderTimeout, ReadTimeout, WriteTimeout and IdleTimeout bound
	// Start's connections as the same-named http.Server fields do: the
	// request's header block, the whole request with its body, the time
	// from the end of the header block to the end of the reply, and the
	// wait for the next request on a kept connection. Defaults:
	// DefaultReadHeaderTimeout, no read timeout, DefaultWriteTimeout,
	// DefaultIdleTimeout; negative disables one, and a disabled header or
	// idle timeout falls back to the read timeout, as in http.Server.
	ReadHeaderTimeout time.Duration
	ReadTimeout       time.Duration
	WriteTimeout      time.Duration
	IdleTimeout       time.Duration
}

// timeoutOr resolves the config convention: zero → def, negative →
// disabled (0, "no timeout").
func timeoutOr(v, def time.Duration) time.Duration {
	if v == 0 {
		return def
	}
	if v < 0 {
		return 0
	}
	return v
}

// cachedSnap is one server-held snapshot acquisition shared by concurrent
// requests: refs counts the cache slot (1) plus every in-flight request,
// and the underlying source snapshot is released exactly once, when the
// last reference drops.
type cachedSnap struct {
	snap     Snapshot
	acquired time.Time
	refs     atomic.Int32
}

// Server is the HTTP query front end. Create with New, start with Start
// (or mount Handler yourself), stop with Shutdown.
type Server struct {
	src         ModelSource
	net         *bn.Network
	names       map[string]int
	maxBody     int64
	maxAge      time.Duration
	maxDegraded time.Duration // negative = degraded serving disabled
	reqTimeout  time.Duration // 0 = none

	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration

	handler http.Handler // the routes, with panic recovery
	paths   []string     // the routes' paths, interned by Start's loop
	ln      net.Listener
	served  chan struct{} // closed when Start's accept goroutine has exited
	gate    *gate         // nil = unlimited

	// mu guards the connections Start's loop serves (conn.go); once
	// closing is set, the last connection to go closes drained.
	mu      sync.Mutex
	conns   map[*conn]struct{}
	closing bool
	drained chan struct{}
	woke    atomic.Int64 // unix nanos of the loop's last wake (conn.go)

	// cache is the shared snapshot acquisition. refreshMu is a 1-slot
	// channel serializing re-acquisition — a stale cache triggers one
	// source rebuild, not one per waiting request — chosen over a mutex
	// so waiters can abandon the wait when their request deadline
	// expires. ahead counts the background refreshes that hold it.
	refreshMu chan struct{}
	cache     atomic.Pointer[cachedSnap]
	ahead     sync.WaitGroup

	// degraded flips when a refresh fails and clears on the next success;
	// while set, the fast path is bypassed so every request re-probes the
	// source through the refresh slot.
	degraded       atomic.Bool
	degradedSince  atomic.Int64 // unix nanos, valid while degraded
	lastRefreshErr atomic.Pointer[string]
	draining       atomic.Bool

	start            time.Time
	requests         atomic.Int64
	errors           atomic.Int64
	panics           atomic.Int64
	shed             atomic.Int64
	deadlineExceeded atomic.Int64
	degradedServed   atomic.Int64
	unavailable      atomic.Int64
	refreshErrs      atomic.Int64
	acquires         atomic.Int64
	refreshes        atomic.Int64
	lastVersion      atomic.Uint64
	byEndpoint       map[string]*atomic.Int64
	lat              histogram
	// refreshWait times each source acquisition a request waits on: for a
	// tracker source, a snapshot rebuild; refreshAhead times those made in
	// the background.
	refreshWait  histogram
	refreshAhead histogram
	qps          qpsWindow
	// scratches holds *scratch, the decoders' n-sized buffers, each taken
	// by one request and given back once its answer is written.
	scratches sync.Pool
}

// New builds a server over cfg.Source.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: Config.Source is required")
	}
	s := &Server{
		src:               cfg.Source,
		net:               cfg.Source.Network(),
		maxBody:           cfg.MaxBodyBytes,
		maxAge:            cfg.MaxSnapshotAge,
		maxDegraded:       cfg.MaxDegradedAge,
		reqTimeout:        timeoutOr(cfg.RequestTimeout, DefaultRequestTimeout),
		readHeaderTimeout: timeoutOr(cfg.ReadHeaderTimeout, DefaultReadHeaderTimeout),
		readTimeout:       timeoutOr(cfg.ReadTimeout, 0),
		writeTimeout:      timeoutOr(cfg.WriteTimeout, DefaultWriteTimeout),
		idleTimeout:       timeoutOr(cfg.IdleTimeout, DefaultIdleTimeout),
		refreshMu:         make(chan struct{}, 1),
		start:             time.Now(),
	}
	// As in http.Server, an unset header or idle timeout is the read timeout.
	s.readHeaderTimeout = cmp.Or(s.readHeaderTimeout, s.readTimeout)
	s.idleTimeout = cmp.Or(s.idleTimeout, s.readTimeout)
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	if s.maxAge == 0 {
		s.maxAge = DefaultMaxSnapshotAge
	}
	if s.maxDegraded == 0 {
		s.maxDegraded = DefaultMaxDegradedAge
	}
	maxConc := cfg.MaxConcurrent
	if maxConc == 0 {
		maxConc = DefaultMaxConcurrent
	}
	if maxConc > 0 {
		maxQueue := cfg.MaxQueue
		if maxQueue == 0 {
			maxQueue = 2 * maxConc
		}
		s.gate = newGate(maxConc, maxQueue)
	}
	s.names = make(map[string]int, s.net.Len())
	for i := 0; i < s.net.Len(); i++ {
		s.names[s.net.Var(i).Name] = i
	}
	routes := map[string]http.HandlerFunc{"/statsz": s.handleStatsz, "/healthz": s.handleHealthz}
	s.byEndpoint = make(map[string]*atomic.Int64)
	s.scratches.New = func() any { return new(scratch) }
	query := func(method, name string, fn func(sc *scratch, body []byte, snap Snapshot) (any, error)) {
		ctr := new(atomic.Int64)
		s.byEndpoint[name] = ctr
		routes["/v1/"+name] = s.handle(ctr, method, fn)
	}
	query(http.MethodPost, "queryprob", s.queryProb)
	query(http.MethodPost, "subsetprob", s.subsetProb)
	query(http.MethodPost, "classify", s.classify)
	query(http.MethodPost, "classifypartial", s.classifyPartial)
	query(http.MethodPost, "marginal", s.marginal)
	query(http.MethodGet, "model", s.model)
	for path := range routes {
		s.paths = append(s.paths, path)
	}
	s.handler = s.withRecovery(routes)
	return s, nil
}

// Handler returns the server's HTTP handler (panic recovery included),
// for tests or embedding in an existing mux; Start is not required when
// serving through it.
func (s *Server) Handler() http.Handler { return s.handler }

// Start binds addr and serves HTTP/1.1 in a background goroutine, one more
// per connection (conn.go); it returns once the listener is bound, so Addr is
// valid immediately (use ":0" to let the kernel pick a port).
func (s *Server) Start(addr string) error {
	if s.ln != nil {
		return fmt.Errorf("serve: already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.conns = make(map[*conn]struct{})
	s.served = make(chan struct{})
	s.drained = make(chan struct{})
	go s.accept(ln)
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown flips /healthz to draining, stops accepting connections and joins
// the accept goroutine Start launched, closes idle connections and drains
// in-flight requests (every accepted request completes, its response is
// written and its connection goroutine exits), then joins any background
// refresh and releases the cached snapshot reference — taken under the
// refresh slot so the release cannot race a refresh publishing a new
// snapshot. The context bounds the drain, as in net/http.Server.Shutdown; past
// it, every connection is closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.ln != nil {
		s.ln.Close()
		<-s.served
		if !s.closeConns(false) {
			select {
			case <-s.drained:
			case <-ctx.Done():
				s.closeConns(true)
				err = ctx.Err()
			}
		}
	}
	select {
	case s.refreshMu <- struct{}{}:
		s.ahead.Wait()
		if old := s.cache.Swap(nil); old != nil {
			s.releaseRef(old)
		}
		<-s.refreshMu
	case <-ctx.Done():
		// A refresh is still in flight past the drain deadline; skip the
		// cache release rather than block — the process is exiting.
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// withRecovery routes a request by its exact path (404 for any other) and
// turns a panicking handler into a 500 that keeps the server alive: one bad
// request must not take down serving for everyone.
func (s *Server) withRecovery(routes map[string]http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { // net/http's own abort protocol
				panic(v)
			}
			s.panics.Add(1)
			s.fail(w, http.StatusInternalServerError,
				fmt.Errorf("serve: internal error serving %s: %v", r.URL.Path, v))
		}()
		if h := routes[r.URL.Path]; h != nil {
			h(w, r)
		} else {
			http.NotFound(w, r)
		}
	})
}

// acquireRef returns a referenced snapshot for one request (pair with
// releaseRef) plus whether it is a degraded last-good snapshot. The fast
// path shares the cached acquisition while it is younger than maxAge and
// the server is healthy, and past maxAge/2 starts a background refresh
// (startRefresh) so that under steady load no request waits for a rebuild;
// the slow path funnels through the 1-slot refresh channel — one source
// probe no matter how many requests found the cache stale — abandoning the
// wait if the request's deadline passes first. On refresh failure the
// last-good cache keeps serving (degraded) until it is older than
// maxDegraded.
func (s *Server) acquireRef(dl *deadline) (*cachedSnap, bool, error) {
	for {
		if s.maxAge >= 0 && !s.degraded.Load() {
			if c := s.cache.Load(); c != nil {
				if age := time.Since(c.acquired); age <= s.maxAge {
					if r := c.refs.Load(); r > 0 && c.refs.CompareAndSwap(r, r+1) {
						if age > s.maxAge/2 {
							s.startRefresh()
						}
						return c, false, nil
					}
					continue // swapped out or contended; retry
				}
			}
		}
		select {
		case s.refreshMu <- struct{}{}:
		default:
			if err := dl.wait(s.refreshMu); err != nil {
				return nil, false, err
			}
		}
		return s.refreshLocked()
	}
}

// startRefresh starts one background refresh, unless a refresh holds the
// slot or Shutdown has begun. It holds the slot while it runs, so a request
// that finds the cache past maxAge meanwhile waits for it, and Shutdown joins
// it. A failure is handled like a foreground one.
func (s *Server) startRefresh() {
	select {
	case s.refreshMu <- struct{}{}:
	default:
		return
	}
	if s.draining.Load() {
		<-s.refreshMu
		return
	}
	s.ahead.Add(1)
	go func() {
		defer s.ahead.Done()
		defer func() { <-s.refreshMu }()
		defer func() {
			if recover() != nil { // a panicking source fails no request here
				s.panics.Add(1)
			}
		}()
		s.probe(&s.refreshAhead)
	}()
}

// refreshLocked runs with the refresh slot held and releases it, even if the
// source panics: re-check the cache, probe the source, and on failure fall
// back to the last-good snapshot within the degraded ceiling.
func (s *Server) refreshLocked() (*cachedSnap, bool, error) {
	defer func() { <-s.refreshMu }()
	if s.maxAge >= 0 && !s.degraded.Load() {
		if c := s.cache.Load(); c != nil && time.Since(c.acquired) <= s.maxAge {
			// Someone refreshed while we waited for the slot. The cache
			// slot's reference cannot drop while we hold it, so the
			// increment cannot race retirement.
			c.refs.Add(1)
			return c, false, nil
		}
	}
	nc, err := s.probe(&s.refreshWait)
	if err == nil {
		nc.refs.Add(1) // this request's, beside the cache slot's
		return nc, false, nil
	}
	c := s.cache.Load()
	if c == nil || s.maxDegraded < 0 {
		s.unavailable.Add(1)
		return nil, false, fmt.Errorf("serve: no servable snapshot: %w", err)
	}
	if age := time.Since(c.snap.BuiltAt()); age > s.maxDegraded {
		s.unavailable.Add(1)
		return nil, false, fmt.Errorf("serve: last-good snapshot is %v old, past the %v degraded ceiling: %w",
			age.Round(time.Millisecond), s.maxDegraded, err)
	}
	c.refs.Add(1) // safe: only a swap under the refresh slot retires the cache reference
	s.degradedServed.Add(1)
	return c, true, nil
}

// probe runs with the refresh slot held: it acquires a snapshot from the
// source, timed into h, and publishes it as the cache, or records the failure
// and enters degraded mode.
func (s *Server) probe(h *histogram) (*cachedSnap, error) {
	t0 := time.Now()
	snap, err := s.src.AcquireSnapshot()
	h.observe(time.Since(t0))
	if err != nil {
		s.refreshErrs.Add(1)
		msg := err.Error()
		s.lastRefreshErr.Store(&msg)
		if s.degraded.CompareAndSwap(false, true) {
			s.degradedSince.Store(time.Now().UnixNano())
		}
		return nil, err
	}
	s.degraded.Store(false)
	nc := &cachedSnap{snap: snap, acquired: time.Now()}
	nc.refs.Store(1) // the cache slot
	if old := s.cache.Swap(nc); old != nil {
		s.releaseRef(old) // the cache slot's reference
	}
	s.noteAcquire(nc)
	return nc, nil
}

// releaseRef drops one reference; the last drop releases the source
// snapshot.
func (s *Server) releaseRef(c *cachedSnap) {
	if c.refs.Add(-1) == 0 {
		c.snap.Release()
	}
}

func (s *Server) noteAcquire(c *cachedSnap) {
	s.acquires.Add(1)
	v := c.snap.Version()
	if s.lastVersion.Swap(v) != v {
		s.refreshes.Add(1)
	}
}

// envelope is the uniform response shape: the endpoint payload plus the
// snapshot provenance promised by the consistency contract.
type envelope struct {
	Result   any      `json:"result"`
	Snapshot snapInfo `json:"snapshot"`
}

type snapInfo struct {
	Version   uint64 `json:"version"`
	AgeMicros int64  `json:"age_us"`
	// StructureEpoch counts hot structure swaps behind the source (0 for
	// fixed-structure sources); a client that sees it change knows the
	// answer came from a freshly learned structure.
	StructureEpoch uint64 `json:"structure_epoch,omitempty"`
	// Degraded marks an answer served from the last-good snapshot while
	// the source is failing: still consistent and version-monotone, but
	// no fresher estimate exists until the source recovers.
	Degraded bool `json:"degraded,omitempty"`
}

func (s *Server) snapInfoFor(c *cachedSnap, degraded bool) snapInfo {
	return snapInfo{
		Version:        c.snap.Version(),
		AgeMicros:      time.Since(c.snap.BuiltAt()).Microseconds(),
		StructureEpoch: c.snap.StructureEpoch(),
		Degraded:       degraded,
	}
}

type probResult struct {
	P float64 `json:"p"`
}

type classifyResult struct {
	Value int `json:"value"`
}

// appendEnvelope appends envelope{Result: result, Snapshot: info} exactly as
// json.Encoder writes it, trailing newline included. A probability
// ({"p":…}) or a class value ({"value":…}) is written in one pass; any other
// result (the /v1/model dump) goes through encoding/json. A result JSON
// cannot carry, such as a NaN or infinite probability, is an error.
func appendEnvelope(b []byte, result any, info snapInfo) ([]byte, error) {
	switch r := result.(type) {
	case probResult:
		if math.IsNaN(r.P) || math.IsInf(r.P, 0) {
			return b, fmt.Errorf("serve: answer %v has no JSON encoding", r.P)
		}
		b = appendFloat(append(b, `{"result":{"p":`...), r.P)
	case classifyResult:
		b = strconv.AppendInt(append(b, `{"result":{"value":`...), int64(r.Value), 10)
	default:
		return appendJSON(b, envelope{Result: result, Snapshot: info})
	}
	b = strconv.AppendUint(append(b, `},"snapshot":{"version":`...), info.Version, 10)
	b = strconv.AppendInt(append(b, `,"age_us":`...), info.AgeMicros, 10)
	if info.StructureEpoch != 0 {
		b = strconv.AppendUint(append(b, `,"structure_epoch":`...), info.StructureEpoch, 10)
	}
	if info.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	return append(b, "}}\n"...), nil
}

// appendFloat formats a finite f as encoding/json does: the shortest
// representation, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit negative exponent not zero-padded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSON appends v as json.Encoder writes it, trailing newline included.
func appendJSON(b []byte, v any) ([]byte, error) {
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

// bodies recycles the buffers query bodies are read into and answers are
// written from. A buffer a large body grew past maxPooledBody is left to the
// collector rather than kept.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

func recycleBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodies.Put(buf)
	}
}

// readBody enforces the endpoint's method and the body cap, and reads the
// body into buf: an over-declared Content-Length is rejected before any read,
// and a MaxBytesReader backstops bodies with no declared length. The decoders
// copy every name and value out of the body, so buf can be reused once the
// answer is computed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, method string, buf *bytes.Buffer) ([]byte, int, error) {
	if r.Method != method {
		w.Header().Set("Allow", method)
		return nil, http.StatusMethodNotAllowed, fmt.Errorf("serve: %s wants %s", r.URL.Path, method)
	}
	if r.ContentLength > s.maxBody {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("serve: body of %d bytes over the %d-byte limit", r.ContentLength, s.maxBody)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: body over the %d-byte limit", s.maxBody)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err)
	}
	return buf.Bytes(), 0, nil
}

// reject maps admission and snapshot-acquisition failures onto the
// overload contract: 429 for shed requests, 503 + Retry-After for
// deadline expiry and unavailable snapshots — always a clean status,
// never a hang or a torn answer.
func (s *Server) reject(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	switch {
	case errors.Is(err, errShed):
		code = http.StatusTooManyRequests
		s.shed.Add(1)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.deadlineExceeded.Add(1)
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	s.fail(w, code, err)
}

// retryAfterSeconds is the Retry-After hint on 429/503: shed load and
// source failures are transient at the time scale of a snapshot refresh
// or a coordinator failover, so clients should come back quickly.
const retryAfterSeconds = 1

// handle wraps one query endpoint with the shared mechanics: request
// accounting, the per-request deadline, the admission gate, the method and
// body cap, the per-request snapshot acquire/release and decode scratch, the
// response envelope and latency recording. fn computes the payload from one
// immutable snapshot; its errors are the request's fault (400) unless marked
// snapshotError (500).
func (s *Server) handle(ctr *atomic.Int64, method string, fn func(sc *scratch, body []byte, snap Snapshot) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		s.requests.Add(1)
		s.qps.record(started.Unix())
		ctr.Add(1)
		dl := deadline{parent: r.Context()}
		dl.conn, _ = w.(*conn) // Start's loop: watch for a hang-up while waiting
		if s.reqTimeout > 0 {
			dl.at = started.Add(s.reqTimeout)
		}
		defer dl.stop()
		if err := s.gate.enter(&dl); err != nil {
			s.reject(w, err)
			return
		}
		defer s.gate.leave()
		buf := bodies.Get().(*bytes.Buffer)
		defer recycleBody(buf)
		body, code, err := s.readBody(w, r, method, buf)
		if err != nil {
			s.fail(w, code, err)
			return
		}
		c, degraded, err := s.acquireRef(&dl)
		if err != nil {
			s.reject(w, err)
			return
		}
		defer s.releaseRef(c)
		sc := s.scratches.Get().(*scratch)
		defer s.scratches.Put(sc)
		result, err := fn(sc, body, c.snap)
		if err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(snapshotError)) {
				code = http.StatusInternalServerError
			}
			s.fail(w, code, err)
			return
		}
		out, err := appendEnvelope(body[:0], result, s.snapInfoFor(c, degraded))
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		s.write(w, http.StatusOK, out)
		s.lat.observe(time.Since(started))
	}
}

// jsonContentType is the Content-Type of every JSON reply, one shared slice
// so that setting it allocates nothing.
var jsonContentType = []string{"application/json"}

// write sends one JSON reply. A failed write means the client has gone, and
// there is no one left to tell.
func (s *Server) write(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(body)
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.errors.Add(1)
	// A map of strings always encodes: encoding/json replaces invalid UTF-8.
	body, _ := appendJSON(nil, map[string]string{"error": err.Error()})
	s.write(w, code, body)
}

// The five query handlers below decode a request against the snapshot's own
// network — under a learned-structure source the parent sets and the
// ancestrally closed subsets can change across a hot swap — and hand it to
// the snapshot's query kernel (core.Snapshot's methods): the same float64
// values multiplied in the same order as an in-process Tracker or
// Coordinator query, so answers are bit-identical to in-process queries
// against the same snapshot.

// queryProb answers P[x] for a full assignment (Snapshot.QueryProb).
func (s *Server) queryProb(sc *scratch, body []byte, snap Snapshot) (any, error) {
	x, err := sc.decodeFullAssignment(snap.Network(), s.names, body)
	if err != nil {
		return nil, err
	}
	return probResult{P: snap.QueryProb(x)}, nil
}

// subsetProb answers the marginal of an ancestrally closed subset
// (Snapshot.QuerySubsetProb).
func (s *Server) subsetProb(sc *scratch, body []byte, snap Snapshot) (any, error) {
	set, x, err := sc.decodeSubsetAssignment(snap.Network(), s.names, body)
	if err != nil {
		return nil, err
	}
	return probResult{P: snap.QuerySubsetProb(set, x)}, nil
}

// classify is the fully observed Markov-blanket argmax (Snapshot.Classify).
func (s *Server) classify(sc *scratch, body []byte, snap Snapshot) (any, error) {
	target, x, err := sc.decodeClassify(snap.Network(), s.names, body)
	if err != nil {
		return nil, err
	}
	return classifyResult{Value: snap.Classify(target, x)}, nil
}

// classifyPartial predicts the target from partial evidence by exact
// inference on the snapshot's normalized model (core.ClassifyPartial).
func (s *Server) classifyPartial(sc *scratch, body []byte, snap Snapshot) (any, error) {
	target, ev, err := sc.decodeClassifyPartial(snap.Network(), s.names, body)
	if err != nil {
		return nil, err
	}
	m, err := modelOf(snap)
	if err != nil {
		return nil, err
	}
	best, err := core.ClassifyPartial(m, target, ev)
	if err != nil {
		return nil, err
	}
	return classifyResult{Value: best}, nil
}

// marginal answers an arbitrary marginal P[assign] by exact inference on
// the snapshot's normalized model (Tracker.InferMarginal).
func (s *Server) marginal(sc *scratch, body []byte, snap Snapshot) (any, error) {
	assign, err := sc.decodeMarginal(snap.Network(), s.names, body)
	if err != nil {
		return nil, err
	}
	m, err := modelOf(snap)
	if err != nil {
		return nil, err
	}
	p, err := m.MarginalProb(assign)
	if err != nil {
		return nil, err
	}
	return probResult{P: p}, nil
}

// snapshotError marks a failure of the snapshot itself rather than of the
// request: the client did nothing wrong, so it is answered 500, not 400.
type snapshotError struct{ error }

// modelOf is Snapshot.Model with its failure blamed on the server side.
func modelOf(snap Snapshot) (*bn.Model, error) {
	m, err := snap.Model()
	if err != nil {
		return nil, snapshotError{err}
	}
	return m, nil
}

// modelVar is one variable of the /v1/model dump.
type modelVar struct {
	Name    string    `json:"name"`
	Card    int       `json:"card"`
	Parents []int     `json:"parents,omitempty"`
	CPT     []float64 `json:"cpt"`
}

// model dumps the snapshot's normalized model (EstimatedModel over the
// wire): every variable's name, cardinality, parents — the snapshot's own,
// possibly learned, structure — and CPT in pidx-major order.
func (s *Server) model(_ *scratch, _ []byte, snap Snapshot) (any, error) {
	m, err := modelOf(snap)
	if err != nil {
		return nil, err
	}
	netw := snap.Network()
	vars := make([]modelVar, netw.Len())
	for i := range vars {
		cpd := m.CPD(i)
		tbl := make([]float64, 0, cpd.Card()*cpd.ParentCard())
		for pidx := 0; pidx < cpd.ParentCard(); pidx++ {
			tbl = append(tbl, cpd.Row(pidx)...)
		}
		vars[i] = modelVar{
			Name:    netw.Var(i).Name,
			Card:    netw.Card(i),
			Parents: netw.Parents(i),
			CPT:     tbl,
		}
	}
	return map[string]any{"vars": vars}, nil
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	body, err := appendJSON(nil, s.Stats())
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("serve: encoding stats: %w", err))
		return
	}
	s.write(w, http.StatusOK, body)
}

// health classifies the server state for /healthz and Stats. It is a
// read-only view of the last observed refresh outcome — it never probes
// the source itself, so it stays cheap and non-blocking under overload.
func (s *Server) health() (string, int) {
	switch {
	case s.draining.Load():
		return HealthDraining, http.StatusServiceUnavailable
	case s.degraded.Load():
		c := s.cache.Load()
		if c == nil || s.maxDegraded < 0 || time.Since(c.snap.BuiltAt()) > s.maxDegraded {
			return HealthUnavailable, http.StatusServiceUnavailable
		}
		return HealthDegraded, http.StatusOK
	default:
		return HealthOK, http.StatusOK
	}
}

// handleHealthz reports the serving state machine: "ok" and "degraded"
// answer 200 (the server is answering queries), "draining" and
// "unavailable" answer 503. Not gated: health must stay readable under
// overload.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	state, code := s.health()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, state+"\n")
}

// Stats assembles the /statsz payload; safe to call concurrently with
// serving.
func (s *Server) Stats() Stats {
	now := time.Now()
	health, _ := s.health()
	st := Stats{
		UptimeSeconds: now.Sub(s.start).Seconds(),
		Health:        health,
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Panics:        s.panics.Load(),
		QPS:           s.qps.rate(now.Unix()),
		ByEndpoint:    make(map[string]int64, len(s.byEndpoint)),
		Admission: AdmissionStats{
			InFlight:         s.gate.inFlight(),
			Queued:           s.gate.waiting(),
			Shed:             s.shed.Load(),
			DeadlineExceeded: s.deadlineExceeded.Load(),
		},
		Degraded: DegradedStats{
			Active:        s.degraded.Load(),
			Served:        s.degradedServed.Load(),
			Unavailable:   s.unavailable.Load(),
			RefreshErrors: s.refreshErrs.Load(),
		},
		Snapshot: SnapshotStats{
			Acquires:              s.acquires.Load(),
			Refreshes:             s.refreshes.Load(),
			RefreshWaitCount:      s.refreshWait.count.Load(),
			RefreshWaitP50Micros:  s.refreshWait.quantile(0.50),
			RefreshWaitP99Micros:  s.refreshWait.quantile(0.99),
			RefreshAheadCount:     s.refreshAhead.count.Load(),
			RefreshAheadP50Micros: s.refreshAhead.quantile(0.50),
			RefreshAheadP99Micros: s.refreshAhead.quantile(0.99),
		},
		Latency: LatencyStats{
			Count:             s.lat.count.Load(),
			P50Micros:         s.lat.quantile(0.50),
			P90Micros:         s.lat.quantile(0.90),
			P99Micros:         s.lat.quantile(0.99),
			BucketsPow2Micros: s.lat.snapshot(),
		},
	}
	st.Admission.MaxConcurrent, st.Admission.MaxQueue = s.gate.limits()
	if st.Degraded.Active {
		st.Degraded.SinceSeconds = now.Sub(time.Unix(0, s.degradedSince.Load())).Seconds()
	}
	if p := s.lastRefreshErr.Load(); p != nil {
		st.Degraded.LastError = *p
	}
	for name, ctr := range s.byEndpoint {
		st.ByEndpoint[name] = ctr.Load()
	}
	if c := s.cache.Load(); c != nil {
		// Version/BuiltAt read immutable snapshot fields, safe even if the
		// cache slot is concurrently swapped and released.
		st.Snapshot.Version = c.snap.Version()
		st.Snapshot.AgeMicros = now.Sub(c.snap.BuiltAt()).Microseconds()
	}
	if r, ok := s.src.(StructStatsReporter); ok {
		if ss, on := r.StructLearnStats(); on {
			st.Struct = &ss
		}
	}
	return st
}
