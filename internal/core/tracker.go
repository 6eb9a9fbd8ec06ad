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
	// Counter selects the distributed-counter protocol (default HYZCounter).
	Counter CounterKind
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
// Query model: the structured query paths (QueryProb, QuerySubsetProb,
// Classify, EstimatedModel, InferMarginal, ClassifyPartial) are served from
// a cached model snapshot. Every stripe carries a version counter that is
// bumped under its lock on each mutation; a query revalidates the cached
// snapshot against the stripe versions and rebuilds only the stripes that
// changed, locking each such stripe once and reading whole variable rows
// (ReadCPDRows) instead of taking two lock round-trips per CPT cell.
// Repeated queries between ingest flushes therefore share one snapshot and
// acquire no locks at all, while point queries against a stale cache fall
// back to per-cell reads for a few calls before paying for a rebuild
// (pointSnapshot), so alternating update/query workloads keep the
// historical per-cell cost. QueryCPD and ExactCount bypass the snapshot
// and read single live cells.
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
	// structured query).
	snap atomic.Pointer[modelSnapshot]
	// rebuildMu serializes snapshot rebuilds and cache replacement: a rebuild
	// shares the rows of the cached snapshot, which its cache reference keeps
	// alive for as long as rebuildMu is held. The query fast path never takes
	// it.
	rebuildMu sync.Mutex
	// rowPools[i] recycles variable i's factor rows (*factorRow of exactly
	// J_i·K_i cells) once no snapshot references them, so steady-state
	// ingest+query mixes stop allocating one row per dirty variable per
	// rebuild. One pool per variable keeps every recycled row exactly the
	// right size.
	rowPools []sync.Pool
	// staleQueries counts point queries served per-cell since the cached
	// snapshot went stale; once it passes staleQueryRebuildThreshold the
	// next point query rebuilds (see pointSnapshot).
	staleQueries atomic.Int32
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
	// under mu at the end of every locked mutation section and read with
	// atomic loads by the snapshot validator: a snapshot built when every
	// stripe version matched is current.
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

		rowPools: make([]sync.Pool, net.Len()),
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
		sh := &t.shards[i%nShards]
		sh.vars = append(sh.vars, i)
		j, k := net.Card(i), net.ParentCard(i)
		t.pair[i], err = t.newBank(j*k, alloc.EpsA[i], sh)
		if err != nil {
			return nil, err
		}
		t.par[i], err = t.newBank(k, alloc.EpsB[i], sh)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newBank builds one variable's counter bank of the configured protocol.
func (t *Tracker) newBank(cells int, eps float64, sh *shard) (*counter.Bank, error) {
	if t.cfg.Strategy == ExactMLE {
		return counter.NewBank(counter.ExactKind, cells, t.cfg.Sites, 0, 0, &sh.tally, nil)
	}
	switch t.cfg.Counter {
	case HYZCounter:
		return counter.NewBank(counter.HYZKind, cells, t.cfg.Sites, eps, t.cfg.Delta, &sh.tally, sh.rng)
	case DeterministicCounter:
		return counter.NewBank(counter.DeterministicKind, cells, t.cfg.Sites, eps, 0, &sh.tally, nil)
	default:
		return nil, fmt.Errorf("core: unknown counter kind %d", t.cfg.Counter)
	}
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
// header on every call (cf. factorRow).
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

// cpdFactor returns the tracked estimate of P[x_i = v | parent config pidx],
// with the configured smoothing. The pair and parent counters are read under
// their stripe's lock so the ratio is consistent against in-flight updates.
// It is the per-cell reference path; the structured query entry points go
// through the batched snapshot instead (see Tracker's type comment).
func (t *Tracker) cpdFactor(i, v, pidx int) float64 {
	ji := t.net.Card(i)
	sh := t.stripeOf(i)
	sh.mu.Lock()
	num := t.pair[i].Estimate(pidx*ji + v)
	den := t.par[i].Estimate(pidx)
	sh.mu.Unlock()
	return smoothedFactor(num, den, t.cfg.Smoothing, ji)
}

// smoothedFactor is the single definition of the smoothed CPD ratio, shared
// by the per-cell reference path and SmoothRows so the two are bit-identical.
func smoothedFactor(num, den, smoothing float64, ji int) float64 {
	num += smoothing
	den += smoothing * float64(ji)
	if den <= 0 {
		return 0
	}
	return num / den
}

// SmoothRows turns one variable's raw rows (the CPDRows layout, J_i = j
// values per parent configuration) into its factor row in place:
// pair[pidx*j+v] becomes (pair[pidx*j+v]+s)/(par[pidx]+s·j). It is the
// snapshot builder's step, and what a producer of raw rows outside the
// tracker (internal/decay) builds a core.Snapshot with.
func SmoothRows(pair, par []float64, smoothing float64, j int) {
	for pidx, den := range par {
		row := pair[pidx*j : (pidx+1)*j]
		for v := range row {
			row[v] = smoothedFactor(row[v], den, smoothing, j)
		}
	}
}

// CPDRows is caller-owned scratch for ReadCPDRows: one variable's raw
// (unsmoothed) tracked estimates. Pair is laid out pidx*J_i + v to match
// bn.CPT; Par is indexed by pidx. Buffers are grown as needed and reused
// across calls.
type CPDRows struct {
	Pair []float64
	Par  []float64
}

// ReadCPDRows copies variable i's entire counter state — all J_i·K_i pair
// estimates and K_i parent estimates — into rows under a single acquisition
// of i's stripe lock, replacing the 2·J_i·K_i per-cell lock round-trips of
// the historical query path. The copies are mutually consistent against
// in-flight updates. Estimates are raw; apply Config.Smoothing downstream
// as (Pair[c]+s)/(Par[pidx]+s·J_i).
func (t *Tracker) ReadCPDRows(i int, rows *CPDRows) {
	j, k := t.net.Card(i), t.net.ParentCard(i)
	rows.Pair = growFloats(rows.Pair, j*k)
	rows.Par = growFloats(rows.Par, k)
	sh := t.stripeOf(i)
	sh.mu.Lock()
	t.readRowsLocked(i, rows.Pair, rows.Par)
	sh.mu.Unlock()
}

// growFloats returns s resized to n cells, reallocating only when needed.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// readRowsLocked copies variable i's raw estimates into pair (len J_i·K_i)
// and par (len K_i) with one kind-specialized bulk read per bank
// (counter.Bank.EstimateRange) — the vectorized half of the snapshot
// rebuild, which walks every CPT cell and every parent cell (munin: 101 866
// and 21 274). Callers must hold i's stripe lock.
func (t *Tracker) readRowsLocked(i int, pair, par []float64) {
	t.pair[i].EstimateRange(0, len(pair), pair)
	t.par[i].EstimateRange(0, len(par), par)
}

// modelSnapshot is the tracker's cache entry: one Snapshot — a
// consistent-enough view of every CPD factor, built by batched per-stripe
// reads and shared by the structured query paths — plus the bookkeeping that
// validates, shares and recycles it.
//
// Invalidation rules: factors[i] holds the smoothed factor of every cell of
// variable i, read under i's stripe lock together with that stripe's
// version. A snapshot is current while every stripe's live version equals
// the recorded one; any mutation bumps its stripe's version (under the
// stripe lock), so the next query rebuilds exactly the stripes that
// changed, reusing the rows of unchanged stripes. Published snapshots are
// immutable. Like the historical per-cell query path, a snapshot taken
// while a multi-stripe update is mid-flight may see earlier stripes
// post-event and later stripes pre-event; quiesce ingestion for a
// stream-position-exact view.
type modelSnapshot struct {
	// Snapshot holds the rows (factors[i][pidx*J_i+v] is the smoothed
	// cpdFactor value), the lazily normalized model, when the rows were read,
	// and the version: the sum of the per-stripe versions, monotone
	// non-decreasing across snapshots because every mutation bumps exactly
	// one stripe version. Its Release drops one reference (releaseSnap).
	Snapshot
	// versions[s] is shards[s].version at the time stripe s's rows were
	// read (or inherited from the previous snapshot).
	versions []uint64

	// refs counts live references: one held by the tracker's cache slot
	// while this is the published snapshot, plus one per in-flight query.
	// When it drops to zero the snapshot is retired and the rows no other
	// snapshot shares are recycled through the tracker's rowPools. Readers take references with
	// Tracker.acquireSnap (a CAS loop that refuses retired snapshots) and
	// drop them with Tracker.releaseSnap.
	refs atomic.Int32
	// rows[i] is the pooled, shared row backing factors[i].
	rows []*factorRow
}

// factorRow is one variable's pooled factor row. A rebuild shares the rows of
// unchanged stripes with its predecessor, and either snapshot may outlive the
// other (a reader can hold an old one across any number of rebuilds), so a
// row counts the snapshots that reference it and returns to the pool when the
// last of them retires. Pooling the box rather than the slice keeps Put from
// re-boxing a slice header (that allocation would cost what pooling saves).
type factorRow struct {
	cells []float64
	snaps atomic.Int32
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
// snapshot/pointSnapshot); the final drop retires the snapshot and recycles
// the rows no other snapshot shares into the row pool.
func (t *Tracker) releaseSnap(s *modelSnapshot) {
	if s.refs.Add(-1) != 0 {
		return
	}
	for i, row := range s.rows {
		if row.snaps.Add(-1) == 0 {
			t.rowPools[i].Put(row)
		}
	}
}

// getRow returns a pooled factor row for variable i with n cells (contents
// unspecified — snapshot building overwrites every cell).
func (t *Tracker) getRow(i, n int) *factorRow {
	row, ok := t.rowPools[i].Get().(*factorRow)
	if !ok {
		row = &factorRow{cells: make([]float64, n)}
	}
	row.snaps.Store(1)
	return row
}

// snapFresh reports whether snap matches every stripe's live version.
func (t *Tracker) snapFresh(snap *modelSnapshot) bool {
	for s := range t.shards {
		if snap.versions[s] != t.shards[s].version.Load() {
			return false
		}
	}
	return true
}

// staleQueryRebuildThreshold is how many point queries are served through
// the per-cell path after the cached snapshot goes stale before the next
// one pays for a rebuild. A rebuild reads every CPT cell while a point
// query reads ~2n, so alternating update/query workloads should keep the
// cheap per-cell cost, while a burst of queries against one training state
// quickly converges to the zero-lock cached snapshot.
const staleQueryRebuildThreshold = 3

// pointSnapshot returns the snapshot a point query (QueryProb,
// QuerySubsetProb, Classify) should read — with a reference held, which the
// caller must drop with releaseSnap — or nil when the query should fall
// back to per-cell cpdFactor reads: for the first few queries after the
// cached snapshot goes stale (see staleQueryRebuildThreshold). Both paths
// produce bit-identical answers.
func (t *Tracker) pointSnapshot() *modelSnapshot {
	if s := t.acquireSnap(); s != nil {
		if t.snapFresh(s) {
			return s
		}
		t.releaseSnap(s)
	}
	if t.staleQueries.Add(1) <= staleQueryRebuildThreshold {
		return nil
	}
	return t.snapshot()
}

// snapshot returns a current model snapshot with a reference held (drop it
// with releaseSnap), rebuilding only stripes whose version moved since the
// cached one was built. Rebuilds are serialized under rebuildMu — which also
// makes the row ownership hand-off to the successor snapshot safe — while
// the fresh-cache fast path stays lock-free.
func (t *Tracker) snapshot() *modelSnapshot {
	if s := t.acquireSnap(); s != nil {
		if t.snapFresh(s) {
			return s
		}
		t.releaseSnap(s)
	}
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	// Re-check under the rebuild lock: a concurrent query may have already
	// rebuilt. The cache slot's reference cannot be dropped while we hold
	// rebuildMu, so a plain increment is safe here.
	if old := t.snap.Load(); old != nil && t.snapFresh(old) {
		old.refs.Add(1)
		return old
	}
	return t.buildSnapshot(t.snap.Load())
}

// AcquireSnapshot returns the current model snapshot with a read reference
// held — the tracker's refcounted snapshot machinery surfaced as a
// read-replica primitive for the serving layer (internal/serve) — rebuilding
// only the stripes whose version moved since the cached snapshot was built (a
// full rebuild bulk-reads every CPT cell via counter.Bank.EstimateRange).
// Ingestion proceeding underneath retires the snapshot without waiting for
// readers. The caller owns one reference and must call Release exactly once.
func (t *Tracker) AcquireSnapshot() *Snapshot { return &t.snapshot().Snapshot }

// buildSnapshot reads every stripe (reusing old's rows for unchanged
// stripes), publishes the new snapshot, retires old's cache reference and
// returns the new one with the caller's reference held. Callers hold
// rebuildMu.
func (t *Tracker) buildSnapshot(old *modelSnapshot) *modelSnapshot {
	ns := &modelSnapshot{
		Snapshot: Snapshot{net: t.net, factors: make([][]float64, t.net.Len())},
		versions: make([]uint64, len(t.shards)),
		rows:     make([]*factorRow, t.net.Len()),
	}
	ns.release = func() { t.releaseSnap(ns) }
	var par []float64 // parent-row scratch shared across variables
	for s := range t.shards {
		sh := &t.shards[s]
		if old != nil {
			if v := sh.version.Load(); v == old.versions[s] {
				// Stripe unchanged since the cached snapshot: share its
				// immutable rows. (A concurrent mutation after the load is
				// caught by the next query's revalidation.)
				for _, i := range sh.vars {
					old.rows[i].snaps.Add(1)
					ns.factors[i], ns.rows[i] = old.factors[i], old.rows[i]
				}
				ns.versions[s] = v
				continue
			}
		}
		sh.mu.Lock()
		for _, i := range sh.vars {
			j, k := t.net.Card(i), t.net.ParentCard(i)
			shared := t.getRow(i, j*k)
			row := shared.cells
			par = growFloats(par, k)
			t.readRowsLocked(i, row, par)
			SmoothRows(row, par, t.cfg.Smoothing, j)
			ns.factors[i] = row
			ns.rows[i] = shared
		}
		ns.versions[s] = sh.version.Load() // under mu: stable
		sh.mu.Unlock()
	}
	for _, v := range ns.versions {
		ns.version += v
	}
	ns.builtAt = time.Now()
	ns.refs.Store(2) // the cache slot plus the returning caller
	t.snap.Store(ns)
	if old != nil {
		t.releaseSnap(old) // drop the cache slot's reference
	}
	t.staleQueries.Store(0)
	return ns
}

// invalidateSnapshotLocked drops the cached snapshot and bumps every stripe
// version so in-flight revalidations miss (used by LoadState and Rotate).
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

// Rotate is the block boundary of a time-decayed view (internal/decay). It
// takes rebuildMu and then every stripe lock; under them it hands fold each
// variable's raw rows (what ReadCPDRows reads; fold must not keep rows, and
// must not call back into the tracker, whose locks it runs under) and
// returns both of the variable's banks to their just-built state
// (counter.Bank.Reset). RNG states, Messages and Events carry on, and the
// cached snapshot is invalidated. Ingestion may race a rotation: each
// stripe's increments land wholly before it or wholly after it.
func (t *Tracker) Rotate(fold func(i int, rows *CPDRows)) {
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	t.lockAll()
	defer t.unlockAll()
	var rows CPDRows
	for i := range t.pair {
		rows.Pair = growFloats(rows.Pair, t.pair[i].Cells())
		rows.Par = growFloats(rows.Par, t.par[i].Cells())
		t.readRowsLocked(i, rows.Pair, rows.Par)
		fold(i, &rows)
		t.pair[i].Reset()
		t.par[i].Reset()
	}
	t.invalidateSnapshotLocked()
}

// QueryProb answers a joint-probability query for the full assignment x
// (Algorithm 3): Π_i A_i(x_i, x_i^par) / A_i(x_i^par). With no smoothing and
// an unseen parent configuration the result is 0. Served from the cached
// model snapshot when one is current, per-cell otherwise (see Tracker's
// type comment and pointSnapshot); both feed the same kernel and are
// bit-identical.
func (t *Tracker) QueryProb(x []int) float64 {
	if snap := t.pointSnapshot(); snap != nil {
		defer t.releaseSnap(snap)
		return snap.QueryProb(x)
	}
	return QueryProb(t.net, t.cpdFactor, x)
}

// QuerySubsetProb estimates the marginal probability of x restricted to an
// ancestrally closed variable set (see bn.Network.AncestralClosure), which
// factorizes exactly over the member CPDs.
func (t *Tracker) QuerySubsetProb(set []int, x []int) float64 {
	if snap := t.pointSnapshot(); snap != nil {
		defer t.releaseSnap(snap)
		return snap.QuerySubsetProb(set, x)
	}
	return QuerySubsetProb(t.net, t.cpdFactor, set, x)
}

// QueryCPD estimates the single CPD entry P[X_i = v | parent config pidx]
// with a live per-cell read (no snapshot involved).
func (t *Tracker) QueryCPD(i, v, pidx int) float64 {
	return t.cpdFactor(i, v, pidx)
}

// Classify returns argmax_y of the tracked P[X_target = y | x_{-target}]
// (the approximate Bayesian classification of Definition 4; see the Classify
// function). x[target] is scratch, restored before returning, so concurrent
// callers must each pass their own x slice.
func (t *Tracker) Classify(target int, x []int) int {
	if snap := t.pointSnapshot(); snap != nil {
		defer t.releaseSnap(snap)
		return snap.Classify(target, x)
	}
	return Classify(t.net, t.cpdFactor, target, x)
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
