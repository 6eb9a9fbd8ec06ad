package core

import "sync"

// This file implements the delta-buffered (lock-free) ingestion mode of the
// tracker (Config.DeltaBuffered): instead of incrementing the shared counter
// banks under their stripe locks, each ingesting goroutine accumulates exact
// per-(cell, site) increment counts into a private DeltaBuffer and publishes
// it on a cadence — after Config.DeltaFlushEvents buffered events, at an
// explicit Flush, or at a query barrier (Tracker.FlushDeltas). A publish
// walks the stripes in ascending order and, under one lock acquisition per
// stripe, folds the buffer into the shared banks with counter.Bank.Merge,
// which replays the counter message protocol on the merged totals.
//
// Guarantees: exact counts are preserved under any interleaving (delta
// counts fold commutatively), and the randomized-counter (ε, δ) guarantee is
// kept — a merge corresponds to a coarser, batched interleaving of the same
// increment multiset, the same interleaving-dependence already accepted for
// Shards > 1. What buffering gives up is immediacy: increments are invisible
// to queries, Events and Messages until published, which is why every
// structured read path starts with a FlushDeltas barrier (see tracker.go)
// and the parallel drivers flush before returning.
//
// Memory: a buffer holds one delta slice per counter bank, J_i·K_i·k plus
// K_i·k int64 cells for variable i — the same asymptotic footprint as the
// banks themselves, per buffer. Buffers are pooled (getDelta/putDelta) and
// registered with the tracker so a barrier can reach increments parked in a
// checked-in buffer.

// defaultDeltaFlushEvents is the publish cadence when Config.DeltaFlushEvents
// is zero: small enough that queries after a barrier see near-current state,
// large enough to amortize the per-flush bank scan.
const defaultDeltaFlushEvents = 1024

// DeltaBuffer is one goroutine's private accumulation of exact-count
// increments against a delta-buffered tracker. Buffers are created with
// Tracker.NewDeltaBuffer, filled with Add/AddEvents, published with Flush
// and retired with Release. A buffer is safe for concurrent use (a query
// barrier may flush it while its owner is between batches), but the intended
// shape is one owner goroutine per buffer — the owner's accumulation then
// never contends.
type DeltaBuffer struct {
	t *Tracker

	// mu excludes the owner's accumulation against barrier flushes from
	// query/checkpoint paths. It is uncontended in steady state; orderings
	// that also take stripe locks always acquire mu first.
	mu sync.Mutex
	// pair[i]/par[i] mirror the tracker's banks for variable i: per-cell,
	// per-site increment counts indexed cell*Sites + site.
	pair, par [][]int64
	// events counts buffered, not-yet-published events.
	events int64
}

// NewDeltaBuffer creates an empty delta buffer and registers it with the
// tracker so FlushDeltas barriers can publish it. Callers that ingest
// through explicit buffers (e.g. one per driver goroutine) must Release the
// buffer when done; the implicit entry points recycle buffers through an
// internal free list instead. Buffers work regardless of Config.DeltaBuffered,
// but only a delta-buffered tracker barriers its query paths — against an
// unbuffered tracker the caller owns flush timing entirely.
func (t *Tracker) NewDeltaBuffer() *DeltaBuffer {
	d := &DeltaBuffer{
		t:    t,
		pair: make([][]int64, t.net.Len()),
		par:  make([][]int64, t.net.Len()),
	}
	k := t.cfg.Sites
	for i := 0; i < t.net.Len(); i++ {
		j, kk := t.net.Card(i), t.net.ParentCard(i)
		d.pair[i] = make([]int64, j*kk*k)
		d.par[i] = make([]int64, kk*k)
	}
	t.deltaMu.Lock()
	t.deltaBufs = append(t.deltaBufs, d)
	t.deltaMu.Unlock()
	return d
}

// Add buffers one observation received at site. Once the buffer holds the
// flush cadence's worth of events it is published inline.
func (d *DeltaBuffer) Add(site int, x []int) {
	d.t.checkSite(site)
	d.addOneChecked(site, x)
}

// AddEvents buffers a batch of observations, publishing mid-batch each time
// the accumulated count crosses the flush cadence.
func (d *DeltaBuffer) AddEvents(events []Event) {
	for i := range events {
		d.t.checkSite(events[i].Site)
	}
	d.addIndexedChecked(len(events),
		func(e int) []int { return events[e].X },
		func(e int) int { return events[e].Site })
}

// addOneChecked is the single-event accumulate-then-maybe-publish step —
// the one definition of the cadence rule, shared (with addIndexedChecked)
// by the explicit Add path and the tracker's implicit buffered entry
// points, whose callers have already validated the site.
func (d *DeltaBuffer) addOneChecked(site int, x []int) {
	d.mu.Lock()
	d.addLocked(site, x)
	if d.events >= d.t.deltaFlushEvery {
		d.flushLocked()
	}
	d.mu.Unlock()
}

// addIndexedChecked is addOneChecked's batch sibling, taking the same
// indexed accessors as the striped engine (applyIndexed). Sites must
// already be validated.
func (d *DeltaBuffer) addIndexedChecked(m int, xAt func(int) []int, siteAt func(int) int) {
	d.mu.Lock()
	for e := 0; e < m; e++ {
		d.addLocked(siteAt(e), xAt(e))
		if d.events >= d.t.deltaFlushEvery {
			d.flushLocked()
		}
	}
	d.mu.Unlock()
}

// addLocked accumulates one event. Callers hold d.mu.
func (d *DeltaBuffer) addLocked(site int, x []int) {
	t := d.t
	if d.events == 0 {
		t.deltaPending.Add(1) // buffer transitions empty → holding events
	}
	k := t.cfg.Sites
	for i := 0; i < t.net.Len(); i++ {
		pidx := t.net.ParentIndex(i, x)
		d.pair[i][(pidx*t.net.Card(i)+x[i])*k+site]++
		d.par[i][pidx*k+site]++
	}
	d.events++
}

// Flush publishes the buffered increments into the shared counter banks:
// one stripe-lock acquisition per stripe, a Bank.Merge per bank, and the
// tracker's event count advanced by the published events. A no-op on an
// empty buffer.
func (d *DeltaBuffer) Flush() {
	d.mu.Lock()
	d.flushLocked()
	d.mu.Unlock()
}

// flushLocked merges and clears the buffer. Callers hold d.mu; stripe locks
// are taken in ascending order, one stripe at a time.
func (d *DeltaBuffer) flushLocked() {
	if d.events == 0 {
		return
	}
	t := d.t
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for _, i := range sh.vars {
			t.pair[i].Merge(d.pair[i])
			t.par[i].Merge(d.par[i])
		}
		t.unlockMutated(sh)
		for _, i := range sh.vars {
			clear(d.pair[i])
			clear(d.par[i])
		}
	}
	t.events.Add(d.events)
	d.events = 0
	t.deltaPending.Add(-1)
}

// Release publishes any buffered increments and unregisters the buffer from
// the tracker. The buffer must not be used afterwards.
func (d *DeltaBuffer) Release() {
	d.Flush()
	t := d.t
	t.deltaMu.Lock()
	for i, b := range t.deltaBufs {
		if b == d {
			last := len(t.deltaBufs) - 1
			t.deltaBufs[i] = t.deltaBufs[last]
			t.deltaBufs[last] = nil
			t.deltaBufs = t.deltaBufs[:last]
			break
		}
	}
	t.deltaMu.Unlock()
}

// FlushDeltas publishes every outstanding delta buffer — the flush barrier
// in front of the query, checkpoint and snapshot paths. After it returns,
// all increments buffered before the call are visible to reads (increments
// being accumulated concurrently with the barrier may land in either the
// pre- or post-barrier state, exactly like updates racing a query). A no-op
// unless the tracker is delta-buffered, and a single atomic load when no
// buffer holds unpublished events — so a query burst against a quiesced
// buffered tracker keeps the zero-lock cached-snapshot path.
func (t *Tracker) FlushDeltas() {
	if !t.cfg.DeltaBuffered || t.deltaPending.Load() == 0 {
		return
	}
	t.deltaMu.Lock()
	bufs := append([]*DeltaBuffer(nil), t.deltaBufs...)
	t.deltaMu.Unlock()
	for _, d := range bufs {
		d.Flush()
	}
}

// getDelta checks a pooled buffer out of the free list (allocating and
// registering a fresh one when empty) for the implicit buffered entry points
// (Update, UpdateBatch, UpdateEvents, Ingest).
func (t *Tracker) getDelta() *DeltaBuffer {
	t.deltaMu.Lock()
	if n := len(t.deltaFree); n > 0 {
		d := t.deltaFree[n-1]
		t.deltaFree[n-1] = nil
		t.deltaFree = t.deltaFree[:n-1]
		t.deltaMu.Unlock()
		return d
	}
	t.deltaMu.Unlock()
	return t.NewDeltaBuffer()
}

// putDelta returns a pooled buffer to the free list. The buffer stays
// registered, so increments parked in it remain reachable by FlushDeltas.
func (t *Tracker) putDelta(d *DeltaBuffer) {
	t.deltaMu.Lock()
	t.deltaFree = append(t.deltaFree, d)
	t.deltaMu.Unlock()
}
