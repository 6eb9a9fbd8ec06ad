package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/counter"
)

// Config parameterizes a Tracker.
type Config struct {
	// Strategy selects the algorithm (EXACTMLE/BASELINE/UNIFORM/NONUNIFORM/
	// NAIVEBAYES).
	Strategy Strategy
	// Eps is the total approximation budget ε of Definition 2, 0 < ε < 1.
	// Ignored by ExactMLE.
	Eps float64
	// Delta is the failure probability δ. As in the paper's evaluation it is
	// carried to the counters but a single instance is run (the median
	// amplification of Theorem 1 is analysis only).
	Delta float64
	// Sites is k, the number of distributed sites.
	Sites int
	// Seed makes the randomized counters reproducible.
	Seed uint64
	// Smoothing is a Laplace pseudo-count applied in queries and
	// classification: each CPD cell behaves as (A+s)/(Apar+s·J_i). Zero (the
	// default) reproduces the paper's unsmoothed estimator.
	Smoothing float64
	// Shards selects the ingestion engine and is the number of its lock
	// stripes. 0 and 1 both mean the sequential reference engine: one
	// stripe, one RNG, one global event-major update order, which
	// reproduces the historical sequential tracker exactly (same counts,
	// same message tallies, same query answers for a fixed seed and event
	// order, however the caller batches). Shards > 1 is the striped engine:
	// variable i's counter banks belong to stripe i mod Shards, every stripe
	// owns an independent RNG, concurrent updates proceed on different
	// stripes in parallel and each batch is applied bank by bank (see
	// applyIndexed). Exact counts stay exact, but randomized-counter message
	// schedules then depend on the interleaving of writers and on how each
	// writer batches its events — a single writer is reproducible for a
	// fixed seed, event order and batching.
	Shards int
	// DeltaBuffered is ignored: a tracker built with it is the sequential
	// or striped tracker Shards selects.
	//
	// Deprecated: it selected a delta-buffered ingestion mode that is gone;
	// the name remains because the frozen repository benchmark (benchmarks/)
	// sets it.
	DeltaBuffered bool
	// DeltaFlushEvents is ignored, like DeltaBuffered; a negative value is
	// still rejected.
	//
	// Deprecated: see DeltaBuffered.
	DeltaFlushEvents int
}

func (c Config) validate() error {
	if c.Strategy != ExactMLE {
		if !(c.Eps > 0 && c.Eps < 1) {
			return fmt.Errorf("core: eps = %v, want 0 < eps < 1", c.Eps)
		}
	}
	if c.Sites < 1 {
		return fmt.Errorf("core: sites = %d, want >= 1", c.Sites)
	}
	if c.Smoothing < 0 {
		return fmt.Errorf("core: smoothing = %v, want >= 0", c.Smoothing)
	}
	if c.Delta < 0 || c.Delta >= 1 {
		return fmt.Errorf("core: delta = %v, want 0 <= delta < 1", c.Delta)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: shards = %d, want >= 0", c.Shards)
	}
	if c.DeltaFlushEvents < 0 {
		return fmt.Errorf("core: delta flush cadence = %d, want >= 0", c.DeltaFlushEvents)
	}
	return nil
}

// Event is one training observation routed to a site — the unit of the
// batched (UpdateEvents) and channel (Ingest) ingestion APIs.
type Event struct {
	// Site is the receiving site in [0, Config.Sites).
	Site int
	// X is the full observed assignment. The tracker only reads it for the
	// duration of the ingesting call; producers that hand events to another
	// goroutine must give each event its own backing array (see
	// stream.Training.NextEvents).
	X []int
}

// Tracker continuously maintains an approximation of the MLE of a Bayesian
// network's parameters over a distributed stream (Algorithms 1-3). It is the
// coordinator-plus-sites simulation; messages are tallied per counter update
// as in the paper's experiments.
//
// Storage model: each variable i owns two flat counter banks
// (counter.Bank) — the pair bank A_i(x_i, x_i^par) with J_i·K_i cells laid
// out pidx·J_i + x_i to match bn.CPT, and the parent bank A_i(x_i^par) with
// K_i cells — so the ingest hot loop is a direct indexed increment on
// contiguous memory rather than an interface call per CPT cell.
//
// Concurrency model: all ingestion entry points (Update, UpdateBatch,
// UpdateEvents, Ingest) and all query entry points (QueryProb, QueryCPD,
// Classify, ExactCount, EstimatedModel, ...) are safe to call from multiple
// goroutines, in either of two ingestion engines:
//
//   - Sequential (Shards ≤ 1): one lock stripe, one RNG, one global update
//     order. Bit-identical to the historical sequential tracker for a fixed
//     seed and event order — same counts, same message tallies, same query
//     answers (the reference mode, pinned by TestSequentialModeBitCompat).
//   - Striped (Shards > 1): counter banks are
//     partitioned into Config.Shards lock stripes by variable index; an
//     update walks the stripes in ascending order, so two concurrent
//     updates pipeline across stripes instead of serializing, and under
//     each stripe lock a batch is applied bank-major — every owned
//     variable's increments for up to 64 events as one run
//     (counter.Bank.IncBatch) — rather than event by event. Exact counts
//     stay exact under any interleaving; randomized-counter message
//     schedules depend on the interleaving and on the batching (a single
//     writer is deterministic for a fixed seed and batching) but keep the
//     (ε, δ) guarantee. Reads are immediate, as in sequential mode.
//
// Message accounting: the flat banks of a stripe tally messages with plain
// adds into the stripe's private tally, published to the atomic sink behind
// Messages at the end of every locked mutation section (unlockMutated) —
// not one LOCK XADD per message. While ingestion is in flight Messages
// therefore trails the counters by at most one locked section (a pass) per
// stripe; once the ingesting calls have returned it is exact.
//
// Concurrent queries must not share mutable arguments — Classify scratches
// x[target] in the caller's slice, so each goroutine needs its own x.
//
// Query model: every query entry point (QueryProb, QuerySubsetProb,
// QueryCPD, Classify, EstimatedModel, InferMarginal, ClassifyPartial) answers
// from one cached model snapshot, the one AcquireSnapshot hands out. Every
// stripe carries a version counter bumped under its lock on each mutation;
// a snapshot records the sum of the versions it read, and a query that finds
// the live sum moved rebuilds the whole snapshot, locking each stripe once
// and bulk-reading its banks into one pooled row set. Repeated queries
// between ingest passes therefore share one snapshot and take no locks.
// ExactCount alone reads live cells: it is the evaluation oracle.
//
// External quiescence is required only for SaveState/LoadState (stripe
// locking excludes torn counter reads, but a mid-flight multi-stripe update
// can be captured half-applied — see SaveState).
type Tracker struct {
	// metrics is first so its int64 tallies are 64-bit aligned for the
	// atomic ops even on 32-bit platforms (the first word of an allocated
	// struct is guaranteed aligned).
	metrics counter.Metrics
	events  atomic.Int64

	net   *bn.Network
	cfg   Config
	alloc Allocation
	// oneWay makes newBanks build the live cluster's one-way banks
	// (counter.OneWayKind) where it would build HYZ ones. Only tests set it,
	// to run the cluster's protocol in a tracker.
	oneWay bool

	// shards[s] guards the counter banks of the variables in shards[s].vars
	// (those with i % len(shards) == s). Stripes are always acquired in
	// ascending order, so walks over multiple stripes cannot deadlock.
	shards []shard

	// pair[i] is the flat bank holding A_i(x_i, x_i^par), cell pidx*J_i+x_i;
	// par[i] holds A_i(x_i^par), cell pidx.
	pair []*counter.Bank
	par  []*counter.Bank

	scratch sync.Pool // *passScratch of the ingestion engine (applyIndexed)

	// snap is the last published model snapshot (nil until the first
	// query).
	snap atomic.Pointer[modelSnapshot]
	// rebuildMu serializes snapshot rebuilds and cache replacement and
	// guards parRow, the rebuilds' parent-row scratch. The query fast path
	// never takes it.
	rebuildMu sync.Mutex
	parRow    []float64
	// rows recycles snapshot row sets (*snapRows) once no snapshot
	// references them, so a steady ingest+query mix stops allocating
	// NumCells floats per rebuild.
	rows sync.Pool
}

// shard is one lock stripe: a mutex, the stripe-local RNG feeding the
// randomized counters that live here, the stripe-local message tally of the
// flat banks that live here, the owned variable indices in ascending order,
// and the snapshot-invalidation version.
type shard struct {
	mu  sync.Mutex
	rng *bn.RNG
	// tally is where this stripe's banks count messages, with plain adds
	// under mu; unlockMutated publishes it to Tracker.metrics.
	tally counter.Metrics
	// version counts mutations of this stripe's banks. It is incremented
	// under mu at the end of every locked mutation section (and by
	// LoadState) and never falls; the snapshot validator sums it over the
	// stripes with atomic loads (Tracker.version).
	version atomic.Uint64
	vars    []int
}

// numShards normalizes Config.Shards (0 means 1).
func (c Config) numShards() int {
	if c.Shards <= 1 {
		return 1
	}
	return c.Shards
}

// NewTracker builds the counter banks for net per Algorithm 1 (INIT).
func NewTracker(net *bn.Network, cfg Config) (*Tracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	alloc, err := Allocate(net, cfg.Strategy, cfg.Eps)
	if err != nil {
		return nil, err
	}
	t := &Tracker{
		net:   net,
		cfg:   cfg,
		alloc: alloc,
		pair:  make([]*counter.Bank, net.Len()),
		par:   make([]*counter.Bank, net.Len()),
	}
	nShards := cfg.numShards()
	if nShards > net.Len() && net.Len() > 0 {
		nShards = net.Len() // more stripes than variables buys nothing
	}
	t.shards = make([]shard, nShards)
	// Stripe 0 keeps the historical sequential RNG (seeded cfg.Seed), which
	// is what makes Shards ≤ 1 bit-identical to the old tracker.
	t.shards[0].rng = bn.NewRNG(cfg.Seed)
	for s := 1; s < nShards; s++ {
		// Derive independent stripe generators from the seed (splitmix-style
		// offset keeps them decorrelated from stripe 0 and each other).
		t.shards[s].rng = bn.NewRNG(cfg.Seed + uint64(s)*0x9e3779b97f4a7c15)
	}
	for i := 0; i < net.Len(); i++ {
		sh := t.stripeOf(i)
		sh.vars = append(sh.vars, i)
		if t.pair[i], t.par[i], err = t.newBanks(i); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newBanks builds variable i's empty pair and parent banks on i's stripe:
// exact for ExactMLE, the HYZ counter of Lemma 4 (or the one-way kind, see
// oneWay) for the approximate strategies.
func (t *Tracker) newBanks(i int) (pair, par *counter.Bank, err error) {
	sh := t.stripeOf(i)
	bank := func(cells int, eps float64) (*counter.Bank, error) {
		switch {
		case t.cfg.Strategy == ExactMLE:
			return counter.NewBank(counter.ExactKind, cells, t.cfg.Sites, 0, 0, &sh.tally, nil)
		case t.oneWay:
			return counter.NewBank(counter.OneWayKind, cells, t.cfg.Sites, eps, t.cfg.Delta, &sh.tally, sh.rng)
		}
		return counter.NewBank(counter.HYZKind, cells, t.cfg.Sites, eps, t.cfg.Delta, &sh.tally, sh.rng)
	}
	k := t.net.ParentCard(i)
	if pair, err = bank(t.net.Card(i)*k, t.alloc.EpsA[i]); err != nil {
		return nil, nil, err
	}
	par, err = bank(k, t.alloc.EpsB[i])
	return pair, par, err
}

// stripeOf returns the lock stripe owning variable i's counter banks.
func (t *Tracker) stripeOf(i int) *shard { return &t.shards[i%len(t.shards)] }

// lockAll acquires every stripe in ascending order (checkpointing).
func (t *Tracker) lockAll() {
	for s := range t.shards {
		t.shards[s].mu.Lock()
	}
}

func (t *Tracker) unlockAll() {
	for s := range t.shards {
		t.shards[s].mu.Unlock()
	}
}

// Network returns the structure the tracker was built for.
func (t *Tracker) Network() *bn.Network { return t.net }

// Config returns the tracker's configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Allocation returns the per-variable counter error parameters in use.
func (t *Tracker) Allocation() Allocation { return t.alloc }

// Events returns the number of training observations processed; an
// ingesting call's events count once all of them have reached the counters.
func (t *Tracker) Events() int64 { return t.events.Load() }

// Messages returns a snapshot of the protocol messages exchanged so far;
// safe to call while ingestion is in flight, when it may lag the counters by
// the locked section in flight on each stripe (see the type comment).
func (t *Tracker) Messages() counter.Metrics { return t.metrics.Snapshot() }

func (t *Tracker) checkSite(site int) {
	if site < 0 || site >= t.cfg.Sites {
		panic(fmt.Sprintf("core: site %d out of range [0,%d)", site, t.cfg.Sites))
	}
}

// Update records one training observation x received at the given site
// (Algorithm 2): for every variable the pair counter and the parent counter
// of the observed configuration are incremented. Safe for concurrent use;
// with a single stripe, concurrent callers serialize in arrival order.
func (t *Tracker) Update(site int, x []int) {
	t.checkSite(site)
	t.applyIndexed(1, func(int) []int { return x }, func(int) int { return site })
}

// Pass sizing of the ingestion engine (applyIndexed). A pass's scratch holds 2n cell indices per
// event, so a pass is as many events as keep it within maxPassEntries int32s
// — 512 KiB whatever the network (munin, n = 1041: 62 events) — and never
// more than maxPassEvents, which already amortizes a bank's cache misses over
// a run. Internal constants, not knobs.
const (
	maxPassEvents  = 64
	maxPassEntries = 1 << 17
)

// passScratch is the pooled scratch of one pass: the pair-bank and
// parent-bank cell of every (variable, event) of the pass and the events'
// sites. The box is pooled, not the slices, so Put does not re-box a slice
// header on every call (cf. snapRows).
type passScratch struct {
	cells, sites []int32
}

// applyIndexed is the ingestion engine behind Update (m = 1), UpdateBatch,
// UpdateEvents and Ingest. The m events are cut into passes; for each pass the
// goroutine-local phase computes every event's pair and parent cell with no
// lock held (the bulk of the per-event CPU work, and perfectly parallel
// across producers) into a variable-major scratch, and the merge phase walks
// the stripes in ascending order and, under each stripe's lock, applies every
// owned variable's whole run with two Bank.IncBatch calls.
//
// Bank-major order is the point: event-major application touches all 2n banks
// (header and word[] lines each) per event and reuses nothing
// between two visits to a bank — on munin's 2082 banks that was most of the
// 36 µs per event — while a run loads a bank's lines once per pass. Within a
// stripe the randomized counters share one RNG, so the draw order, and with
// it the message schedule, depends on where the pass boundaries fall: on a
// striped tracker a single writer's schedule is a function of seed, event
// order and batching (exact counts and the (ε, δ) guarantee do not care).
//
// A single stripe keeps the historical event-major order instead — it is the
// reference mode the goldens pin, and its schedule must not depend on
// batching — over the same scratch laid out event-major. (Making its passes
// one event long, so that both orders coincide and one loop serves, was
// measured: a lock hand-off per event cost BenchmarkParallelIngest/shards=1
// 40%.) A one-event pass takes that loop on any tracker: the two orders
// coincide there and Inc beats a one-pair IncBatch.
func (t *Tracker) applyIndexed(m int, xAt func(int) []int, siteAt func(int) int) {
	if m == 0 {
		return
	}
	n := t.net.Len()
	pass := max(1, min(m, maxPassEvents, maxPassEntries/(2*n)))
	sc, _ := t.scratch.Get().(*passScratch)
	if sc == nil {
		sc = new(passScratch)
	}
	if cap(sc.sites) < pass {
		sc.cells, sc.sites = make([]int32, 2*n*pass), make([]int32, pass)
	}
	for lo := 0; lo < m; lo += pass {
		q := min(pass, m-lo)
		cells, sites := sc.cells[:2*n*q], sc.sites[:q]
		// Variable i's pair cell for event e is cells[i*vs+e*es], its parent
		// cell po further: variable-major runs of q, or event-major rows of 2n.
		eventMajor := len(t.shards) == 1 || q == 1
		vs, es, po := 2*q, 1, q
		if eventMajor {
			vs, es, po = 2, 2*n, 1
		}
		for e := 0; e < q; e++ {
			x := xAt(lo + e)
			sites[e] = int32(siteAt(lo + e))
			for i := 0; i < n; i++ {
				pidx := t.net.ParentIndex(i, x)
				cells[i*vs+e*es] = int32(pidx*t.net.Card(i) + x[i])
				cells[i*vs+e*es+po] = int32(pidx)
			}
		}
		for s := range t.shards {
			sh := &t.shards[s]
			sh.mu.Lock()
			if eventMajor {
				for e := 0; e < q; e++ {
					row, site := cells[e*es:e*es+es], int(sites[e])
					for _, i := range sh.vars {
						t.pair[i].Inc(int(row[2*i]), site)
						t.par[i].Inc(int(row[2*i+1]), site)
					}
				}
			} else {
				for _, i := range sh.vars {
					t.pair[i].IncBatch(cells[i*vs:i*vs+q], sites)
					t.par[i].IncBatch(cells[i*vs+q:i*vs+2*q], sites)
				}
			}
			t.unlockMutated(sh)
		}
	}
	t.scratch.Put(sc)
	t.events.Add(int64(m))
}

// unlockMutated ends a locked section that mutated sh's banks: it publishes
// the stripe's message tally to the live sink, bumps the snapshot version and
// unlocks. Every such section ends here, so the tally is zero whenever the
// lock is free (SaveState relies on that) and Messages trails the counters by
// at most the section in flight on each stripe.
func (t *Tracker) unlockMutated(sh *shard) {
	sh.tally.DrainTo(&t.metrics)
	sh.version.Add(1)
	sh.mu.Unlock()
}

// UpdateBatch records a batch of observations all received at the same site,
// amortizing lock traffic over the batch (one stripe acquisition per stripe
// per batch instead of per event). Safe for concurrent use.
func (t *Tracker) UpdateBatch(site int, events [][]int) {
	t.checkSite(site)
	t.applyIndexed(len(events), func(e int) []int { return events[e] }, func(int) int { return site })
}

// UpdateEvents records a batch of observations with per-event sites — the
// mixed-site sibling of UpdateBatch, used when one pump drains a stream that
// interleaves all sites. Safe for concurrent use.
func (t *Tracker) UpdateEvents(events []Event) {
	for i := range events {
		t.checkSite(events[i].Site)
	}
	t.applyIndexed(len(events), func(e int) []int { return events[e].X }, func(e int) int { return events[e].Site })
}

// Ingest pumps events from the channel into the tracker until the channel is
// closed (returning a nil error) or ctx is canceled (returning ctx.Err()).
// Events are drained opportunistically into batches so a fast producer pays
// batched-ingestion cost rather than per-event lock traffic. Invariant: the
// returned count always matches what reached the counters — every receive
// is followed by a flush before the cancellation check, and the exit paths
// flush defensively so the invariant survives future restructuring of the
// drain loop. Multiple Ingest pumps may run concurrently on one tracker;
// each returns the count of events it ingested.
func (t *Tracker) Ingest(ctx context.Context, events <-chan Event) (int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	const maxBatch = 256
	done := ctx.Done()
	batch := make([]Event, 0, maxBatch)
	var ingested int64
	flush := func() {
		if len(batch) == 0 {
			return
		}
		t.UpdateEvents(batch)
		ingested += int64(len(batch))
		batch = batch[:0]
	}
	for {
		select {
		case <-done:
			flush()
			return ingested, ctx.Err()
		case ev, ok := <-events:
			if !ok {
				flush()
				return ingested, nil
			}
			batch = append(batch, ev)
		}
	drain:
		for len(batch) < maxBatch {
			select {
			case ev, ok := <-events:
				if !ok {
					flush()
					return ingested, nil
				}
				batch = append(batch, ev)
			default:
				break drain
			}
		}
		flush()
	}
}

// smoothRows turns one variable's raw rows (J_i = j values per parent
// configuration) into its factor row in place: pair[pidx*j+v] becomes
// (pair[pidx*j+v]+s)/(par[pidx]+s·j), or 0 where that denominator is not
// positive. It is the snapshot builder's step.
func smoothRows(pair, par []float64, s float64, j int) {
	for pidx, den := range par {
		den += s * float64(j)
		row := pair[pidx*j : (pidx+1)*j]
		for v := range row {
			if den <= 0 {
				row[v] = 0
			} else {
				row[v] = (row[v] + s) / den
			}
		}
	}
}

// growFloats returns s resized to n cells, reallocating only when needed.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// modelSnapshot is the tracker's cache entry: one Snapshot — every CPD
// factor, read stripe by stripe under each stripe's lock — plus the
// bookkeeping that shares and recycles it.
//
// Invalidation rule: the Snapshot's version is the sum of the stripe versions
// the rebuild read, each under its stripe's lock together with that stripe's
// rows. Stripe versions never fall, so the snapshot is current exactly while
// the live sum (Tracker.version) equals the recorded one. Published snapshots
// are immutable. A snapshot taken while a multi-stripe update is mid-flight
// may see earlier stripes post-event and later stripes pre-event; quiesce
// ingestion for a stream-position-exact view.
type modelSnapshot struct {
	// Snapshot holds the rows (factors[i][pidx*J_i+v] is the smoothed
	// factor), the lazily normalized model, when the rows were read and the
	// version. Its Release drops one reference (releaseSnap).
	Snapshot
	// refs counts live references: one held by the tracker's cache slot
	// while this is the published snapshot, plus one per in-flight query.
	// When it drops to zero the snapshot is retired and its rows go back to
	// the tracker's pool. Readers take references with acquireSnap (a CAS
	// loop that refuses retired snapshots) and drop them with releaseSnap.
	refs atomic.Int32
	rows *snapRows
}

// snapRows is one snapshot's pooled row set: one backing array of NumCells
// floats sliced into factors[i] of J_i·K_i cells. Pooling the box rather than
// the slice keeps Put from re-boxing a slice header.
type snapRows struct{ factors [][]float64 }

// getRows returns a pooled row set (contents unspecified — the rebuild
// overwrites every cell).
func (t *Tracker) getRows() *snapRows {
	if r, ok := t.rows.Get().(*snapRows); ok {
		return r
	}
	r := &snapRows{factors: make([][]float64, t.net.Len())}
	cells := make([]float64, t.net.NumCells())
	for i := range r.factors {
		n := t.net.Card(i) * t.net.ParentCard(i)
		r.factors[i], cells = cells[:n:n], cells[n:]
	}
	return r
}

// acquireSnap takes a read reference on the cached snapshot, or returns nil
// when none is published. The CAS loop refuses snapshots that retired
// between the load and the increment — their rows may already be recycled —
// and retries against the freshly published successor.
func (t *Tracker) acquireSnap() *modelSnapshot {
	for {
		s := t.snap.Load()
		if s == nil {
			return nil
		}
		r := s.refs.Load()
		if r == 0 {
			continue // retired under us; the cache slot has moved on
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return s
		}
	}
}

// releaseSnap drops a reference taken by acquireSnap (or returned by
// snapshot); the final drop retires the snapshot and recycles its rows.
func (t *Tracker) releaseSnap(s *modelSnapshot) {
	if s.refs.Add(-1) == 0 {
		t.rows.Put(s.rows)
	}
}

// version sums the live stripe versions (see modelSnapshot).
func (t *Tracker) version() uint64 {
	var v uint64
	for s := range t.shards {
		v += t.shards[s].version.Load()
	}
	return v
}

// snapshot returns a current model snapshot with a reference held (drop it
// with releaseSnap), rebuilding it whole when any stripe moved since the
// cached one was built. Rebuilds are serialized under rebuildMu while the
// fresh-cache fast path stays lock-free.
func (t *Tracker) snapshot() *modelSnapshot {
	if s := t.acquireSnap(); s != nil {
		if s.version == t.version() {
			return s
		}
		t.releaseSnap(s)
	}
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	// Re-check under the rebuild lock: a concurrent query may have already
	// rebuilt. Only a rebuild drops the cache slot's reference, so a plain
	// increment is safe here.
	old := t.snap.Load()
	if old != nil && old.version == t.version() {
		old.refs.Add(1)
		return old
	}
	ns := t.buildSnapshot()
	t.snap.Store(ns)
	if old != nil {
		t.releaseSnap(old) // drop the cache slot's reference
	}
	return ns
}

// AcquireSnapshot returns the current model snapshot with a read reference
// held — the tracker's refcounted snapshot machinery surfaced as a
// read-replica primitive for the serving layer (internal/serve) — rebuilding
// it when any stripe moved since the cached snapshot was built (a rebuild
// bulk-reads every CPT cell via counter.Bank.EstimateRange). Ingestion
// proceeding underneath retires the snapshot without waiting for readers.
// The caller owns one reference and must call Release exactly once.
func (t *Tracker) AcquireSnapshot() *Snapshot { return &t.snapshot().Snapshot }

// buildSnapshot reads every stripe into a pooled row set — per variable one
// kind-specialized bulk read per bank (counter.Bank.EstimateRange) and the
// smoothing — and returns the new snapshot with two references held: the
// cache slot's and the caller's. Callers hold rebuildMu.
func (t *Tracker) buildSnapshot() *modelSnapshot {
	rows := t.getRows()
	ns := &modelSnapshot{Snapshot: Snapshot{net: t.net, factors: rows.factors}, rows: rows}
	ns.release = func() { t.releaseSnap(ns) }
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for _, i := range sh.vars {
			j, k := t.net.Card(i), t.net.ParentCard(i)
			t.parRow = growFloats(t.parRow, k)
			t.pair[i].EstimateRange(0, j*k, rows.factors[i])
			t.par[i].EstimateRange(0, k, t.parRow)
			smoothRows(rows.factors[i], t.parRow, t.cfg.Smoothing, j)
		}
		ns.version += sh.version.Load() // under mu: stable
		sh.mu.Unlock()
	}
	ns.builtAt = time.Now()
	ns.refs.Store(2)
	return ns
}

// invalidateSnapshotLocked drops the cached snapshot and bumps every stripe
// version so in-flight revalidations miss (used by LoadState).
// Callers hold rebuildMu — and must acquire it BEFORE any stripe lock:
// snapshot rebuilds take rebuildMu first and then the stripe locks, so the
// reverse order deadlocks against a concurrent query.
func (t *Tracker) invalidateSnapshotLocked() {
	for s := range t.shards {
		t.shards[s].version.Add(1)
	}
	if old := t.snap.Swap(nil); old != nil {
		t.releaseSnap(old)
	}
}

// QueryProb answers a joint-probability query for the full assignment x
// (Algorithm 3): Π_i A_i(x_i, x_i^par) / A_i(x_i^par). With no smoothing and
// an unseen parent configuration the result is 0.
func (t *Tracker) QueryProb(x []int) float64 {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.QueryProb(x)
}

// QuerySubsetProb estimates the marginal probability of x restricted to an
// ancestrally closed variable set (see bn.Network.AncestralClosure), which
// factorizes exactly over the member CPDs.
func (t *Tracker) QuerySubsetProb(set []int, x []int) float64 {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.QuerySubsetProb(set, x)
}

// QueryCPD estimates the single CPD entry P[X_i = v | parent config pidx],
// with the configured smoothing.
func (t *Tracker) QueryCPD(i, v, pidx int) float64 {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.Factor(i, v, pidx)
}

// Classify returns argmax_y of the tracked P[X_target = y | x_{-target}]
// (the approximate Bayesian classification of Definition 4; see the Classify
// function). x[target] is scratch, restored before returning, so concurrent
// callers must each pass their own x slice.
func (t *Tracker) Classify(target int, x []int) int {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.Classify(target, x)
}

// EstimatedModel snapshots the tracked parameters into a bn.Model (see
// Snapshot.Model). The model is built at most once per counter-state snapshot
// and shared by subsequent calls (and by InferMarginal/ClassifyPartial) until
// ingestion advances; treat it as read-only.
func (t *Tracker) EstimatedModel() (*bn.Model, error) {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.Model()
}

// ExactCount returns the true (not estimated) pair and parent counts for a
// cell; used by evaluation code to compute the exact-MLE reference from the
// same tracker run. Both counts are read under the variable's stripe lock.
func (t *Tracker) ExactCount(i, v, pidx int) (pairCount, parCount int64) {
	sh := t.stripeOf(i)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return t.pair[i].Exact(pidx*t.net.Card(i) + v), t.par[i].Exact(pidx)
}

// InferMarginal answers an arbitrary marginal query P[assign] against the
// tracked model (see Snapshot.InferMarginal). The snapshot — including the
// normalized model — is cached between ingest flushes, so issuing many
// marginal queries against the same training state does not rebuild the model
// per call.
func (t *Tracker) InferMarginal(assign map[int]int) (float64, error) {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.InferMarginal(assign)
}

// ClassifyPartial predicts argmax_y P[X_target = y | evidence] when only a
// subset of the other variables is observed (see the ClassifyPartial
// function).
func (t *Tracker) ClassifyPartial(target int, evidence map[int]int) (int, error) {
	snap := t.snapshot()
	defer t.releaseSnap(snap)
	return snap.ClassifyPartial(target, evidence)
}
