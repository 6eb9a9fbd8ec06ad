package core

import (
	"context"
	"fmt"
	"math"
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
	if !(c.Smoothing >= 0) || math.IsInf(c.Smoothing, 1) {
		return fmt.Errorf("core: smoothing = %v, want finite and >= 0", c.Smoothing)
	}
	if !(c.Delta >= 0 && c.Delta < 1) {
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
	// stream.Training.NextEvents). A row of another length than the
	// network's, or a value outside its variable's card, makes the ingesting
	// call panic before that event's pass changes any counter.
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
	// rebuildMu serializes snapshot rebuilds and cache replacement. The
	// query fast path never takes it.
	rebuildMu sync.Mutex
	// rows recycles snapshot row sets (*snapRows) once no snapshot
	// references them, so a steady ingest+query mix stops allocating a row
	// set per rebuild.
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

// Events returns the number of training observations processed; a pass's
// events (see applyIndexed) count once all of them have reached the counters.
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
// with a single stripe, concurrent callers serialize in arrival order. Like
// every ingesting call it panics on an out-of-range site or a malformed x
// (see Event.X).
func (t *Tracker) Update(site int, x []int) {
	t.checkSite(site)
	t.applyIndexed(1, func(int) []int { return x }, func(int) int { return site })
}

// Pass sizing of the ingestion engine (applyIndexed). A pass's scratch holds 2n cell indices per
// event, so a pass is as many events as keep it within maxPassEntries int32s
// — 512 KiB whatever the network (munin, n = 1041: 62 events) — and never
// more than maxPassEvents, which already amortizes a bank's cache misses over
// a run. The column pass copies its events into columns transposeBlock events
// at a time: one 32-byte run per variable per block. Internal constants, not
// knobs.
const (
	maxPassEvents  = 64
	maxPassEntries = 1 << 17
	transposeBlock = 8
)

// passScratch is the pooled scratch of one pass: the pair-bank and
// parent-bank cell of every (variable, event) of the pass, the events'
// values in columns (the column pass only), and the events' rows and sites.
// The box is pooled, not the slices, so Put does not re-box a slice header on
// every call (cf. snapRows).
type passScratch struct {
	cells, cols, sites []int32
	xs                 [][]int
}

// applyIndexed is the ingestion engine behind Update (m = 1), UpdateBatch,
// UpdateEvents and Ingest. The m events are cut into passes; for each pass the
// index phase computes every event's pair and parent cell with no lock held
// (the bulk of the per-event CPU work, and perfectly parallel across
// producers), and the merge phase walks the stripes in ascending order and,
// under each stripe's lock, applies the owned variables' increments. The
// index phase also checks every event (len(X) = n, each value below its
// card) and panics on a malformed one, as checkSite does, before the pass
// takes any lock: a rejected event's pass changes no counter, and the passes
// before it are applied and counted in Events.
//
// On a striped tracker a pass of more than one event is bank-major: its
// index phase is the column pass (columnCells), which writes each variable's
// run of q pair cells and q parent cells side by side, and the merge applies
// every owned variable's whole run with two Bank.IncBatch calls. Event-major
// application touches all 2n banks (header and word[] lines each) per event
// and reuses nothing between two visits to a bank, while a run loads a bank's
// lines once per pass. Within a stripe the randomized counters share one RNG,
// so the draw order, and with it the message schedule, depends on where the
// pass boundaries fall: on a striped tracker a single writer's schedule is a
// function of seed, event order and batching (exact counts and the (ε, δ)
// guarantee do not care).
//
// A single stripe keeps the historical event-major order instead — it is the
// reference mode the goldens pin, and its schedule must not depend on
// batching — and its per-event index loop (eventCells), whose rows of 2n
// cells its merge reads in order. (Making its passes one event long, so that
// both orders coincide and one loop serves, was measured: a lock hand-off per
// event cost the one-stripe engine 40% of its events/sec. Feeding it from the
// column pass instead was ~10% slower on munin, as its merge then reads the
// variable-major scratch with a stride.) A one-event pass takes that loop on
// any tracker: the two orders coincide there and Inc beats a one-pair
// IncBatch.
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
		sc.cells, sc.sites, sc.xs = make([]int32, 2*n*pass), make([]int32, pass), make([][]int, pass)
		if len(t.shards) > 1 { // only a striped tracker runs the column pass
			sc.cols = make([]int32, n*pass)
		}
	}
	for lo := 0; lo < m; lo += pass {
		q := min(pass, m-lo)
		cells, sites := sc.cells[:2*n*q], sc.sites[:q]
		eventMajor := len(t.shards) == 1 || q == 1
		if eventMajor {
			for e := range sites {
				sites[e] = int32(siteAt(lo + e))
				t.eventCells(lo+e, xAt(lo+e), cells[2*n*e:2*n*(e+1)])
			}
		} else {
			xs := sc.xs[:q]
			for e := range xs {
				xs[e], sites[e] = xAt(lo+e), int32(siteAt(lo+e))
			}
			t.columnCells(lo, xs, sc.cols[:n*q], cells)
		}
		for s := range t.shards {
			sh := &t.shards[s]
			sh.mu.Lock()
			if eventMajor {
				for e, site := range sites {
					row := cells[2*n*e : 2*n*(e+1)]
					for _, i := range sh.vars {
						t.pair[i].Inc(int(row[2*i]), int(site))
						t.par[i].Inc(int(row[2*i+1]), int(site))
					}
				}
			} else {
				for _, i := range sh.vars {
					t.pair[i].IncBatch(cells[2*q*i:2*q*i+q], sites)
					t.par[i].IncBatch(cells[2*q*i+q:2*q*(i+1)], sites)
				}
			}
			t.unlockMutated(sh)
		}
		t.events.Add(int64(q))
	}
	clear(sc.xs) // the pool must not keep the callers' events alive
	t.scratch.Put(sc)
}

// eventCells is the event-major index loop of event e: variable i's pair
// cell at row[2i], its parent cell at row[2i+1].
func (t *Tracker) eventCells(e int, x []int, row []int32) {
	net := t.net
	if len(x) != net.Len() {
		t.checkEvent(e, x)
	}
	for i, v := range x {
		j := net.Card(i)
		if uint(v) >= uint(j) {
			t.checkEvent(e, x)
		}
		pidx := net.ParentIndex(i, x)
		row[2*i], row[2*i+1] = int32(pidx*j+v), int32(pidx)
	}
}

// columnCells is the column pass of q = len(xs) events, the first of them
// event lo: variable i's q pair cells at cells[2q·i:], then its q parent
// cells. It copies the events into cols, variable i's values at cols[q·i:],
// transposeBlock events at a time so that reads and writes both run
// sequentially; then, per variable, one loop over the parents' columns builds
// the parent cells from Parents(i) and Strides(i), read once per pass, and a
// last loop over the variable's own column checks each value against J_i and
// writes pidx·J_i + x_i. The cells are ParentIndex's, in the runs the
// event-major loop would write.
func (t *Tracker) columnCells(lo int, xs [][]int, cols, cells []int32) {
	n, q := t.net.Len(), len(xs)
	for e, x := range xs {
		if len(x) != n {
			t.checkEvent(lo+e, x)
		}
	}
	for b := 0; b < q; b += transposeBlock {
		blk := xs[b:min(b+transposeBlock, q)]
		for i := range n {
			col := cols[q*i+b : q*i+b+len(blk)]
			for e, x := range blk {
				// A value outside [0, 2³¹) reads as MaxInt32, which no card exceeds.
				col[e] = int32(min(uint(x[i]), math.MaxInt32))
			}
		}
	}
	for i := range n {
		c0 := cols[q*i : q*(i+1)]
		pair, par := cells[2*q*i : 2*q*i+q][:len(c0)], cells[2*q*i+q : 2*q*(i+1)][:len(c0)]
		clear(par)
		st := t.net.Strides(i)
		for p, parent := range t.net.Parents(i) {
			col, s := cols[q*parent : q*(parent+1)][:len(par)], int32(st[p])
			for e := range par {
				par[e] += col[e] * s
			}
		}
		j := int32(t.net.Card(i))
		for e := range c0 {
			if uint32(c0[e]) >= uint32(j) {
				t.checkEvent(lo+e, xs[e])
			}
			pair[e] = par[e]*j + c0[e]
		}
	}
}

// checkEvent panics, as checkSite does, unless event e's row is a full
// assignment of the network: the index phase's slow path, taken once it has
// seen a value or a length that does not fit.
func (t *Tracker) checkEvent(e int, x []int) {
	if !t.net.ValidAssignment(x) {
		panic(fmt.Sprintf("core: event %d is not a full assignment: %d values for %d variables, or one outside [0, card)", e, len(x), t.net.Len()))
	}
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
	// Snapshot holds the estimate rows (Factor smooths and divides them on
	// read), the lazily normalized model, when the rows were read and the
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

// snapRows is one snapshot's pooled row set: one backing array sliced into
// est[i] of (J_i+1)·K_i cells, the layout Snapshot reads. Pooling the box
// rather than the slice keeps Put from re-boxing a slice header.
type snapRows struct{ est [][]float64 }

// getRows returns a pooled row set (contents unspecified — the rebuild
// overwrites every cell).
func (t *Tracker) getRows() *snapRows {
	if r, ok := t.rows.Get().(*snapRows); ok {
		return r
	}
	r := &snapRows{est: make([][]float64, t.net.Len())}
	total := t.net.NumCells()
	for i := range r.est {
		total += t.net.ParentCard(i)
	}
	cells := make([]float64, total)
	for i := range r.est {
		n := (t.net.Card(i) + 1) * t.net.ParentCard(i)
		r.est[i], cells = cells[:n:n], cells[n:]
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
// kind-specialized bulk read per bank (counter.Bank.EstimateRange); Factor
// smooths and divides on read — and returns the new snapshot with two
// references held: the cache slot's and the caller's. Callers hold rebuildMu.
func (t *Tracker) buildSnapshot() *modelSnapshot {
	rows := t.getRows()
	ns := &modelSnapshot{Snapshot: Snapshot{net: t.net, est: rows.est, smoothing: t.cfg.Smoothing}, rows: rows}
	ns.release = func() { t.releaseSnap(ns) }
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for _, i := range sh.vars {
			jk := t.net.Card(i) * t.net.ParentCard(i)
			t.pair[i].EstimateRange(0, jk, rows.est[i])
			t.par[i].EstimateRange(0, t.net.ParentCard(i), rows.est[i][jk:])
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
