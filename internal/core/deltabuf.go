package core

import (
	"slices"
	"sync"

	"distbayes/internal/counter"
)

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
// Memory: a dense buffer (the default) holds one delta slice per counter
// bank, J_i·K_i·k plus K_i·k int64 cells for variable i — the same
// asymptotic footprint as the banks themselves, per buffer. Buffers are
// pooled (getDelta/putDelta) and registered with the tracker so a barrier
// can reach increments parked in a checked-in buffer.
//
// Config.DeltaSparse switches every buffer to a sparse touched-cell
// representation (sparseCells below): per bank, a map from touched cell to a
// slot in a compact slab of k-wide per-site rows, plus the list of touched
// cells. Accumulation costs one map lookup per (variable, bank) per event
// instead of a direct array index, but memory and flush work become
// proportional to the cells actually touched in the window rather than the
// whole bank — on munin-scale networks (~80k cells) a dense buffer mirrors
// tens of MB per goroutine and every flush scans it all, while a sparse
// buffer at a small cadence holds only the few thousand rows the window
// dirtied. A sparse flush sorts the touched cells ascending and folds them
// through counter.Bank.MergeCell, which visits cells in exactly the order
// the dense Bank.Merge would, so for identical flush points the two
// representations are bit-identical (pinned by
// TestSparseDeltaMatchesDense).

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
	// per-site increment counts indexed cell*Sites + site. Nil when the
	// buffer is sparse.
	pair, par [][]int64
	// spPair[i]/spPar[i] are the sparse touched-cell accumulators
	// (Config.DeltaSparse). Nil when the buffer is dense.
	spPair, spPar []sparseCells
	// events counts buffered, not-yet-published events.
	events int64
}

// sparseCells accumulates per-site increment deltas for the touched cells of
// one counter bank: rows is a compact slot-major slab (rows[slot*k+site]),
// slot maps a cell to its slab row, and dirty lists the touched cells so a
// flush can walk (and then zero) only what the window actually dirtied.
type sparseCells struct {
	slot  map[int32]int32
	dirty []int32
	rows  []int64
}

// add records one increment for (cell, site), claiming a zeroed slab row on
// the cell's first touch.
func (s *sparseCells) add(cell, site, k int) {
	sl, ok := s.slot[int32(cell)]
	if !ok {
		sl = int32(len(s.dirty))
		if s.slot == nil {
			s.slot = make(map[int32]int32)
		}
		s.slot[int32(cell)] = sl
		s.dirty = append(s.dirty, int32(cell))
		if need := (int(sl) + 1) * k; need <= cap(s.rows) {
			// Reclaimed slab space was zeroed by the last reset.
			s.rows = s.rows[:need]
		} else {
			s.rows = append(s.rows, make([]int64, k)...)
		}
	}
	s.rows[int(sl)*k+site]++
}

// mergeInto folds the touched cells into bank in ascending cell order — the
// order the dense Bank.Merge walks. Call reset afterwards (outside the
// stripe lock) to clear the accumulator.
func (s *sparseCells) mergeInto(bank *counter.Bank, k int) {
	if len(s.dirty) == 0 {
		return
	}
	slices.Sort(s.dirty)
	for _, cell := range s.dirty {
		lo := int(s.slot[cell]) * k
		bank.MergeCell(int(cell), s.rows[lo:lo+k])
	}
}

// reset zeroes the used slab rows and forgets the touched cells, keeping the
// backing storage for the next window.
func (s *sparseCells) reset() {
	if len(s.dirty) == 0 {
		return
	}
	clear(s.rows)
	s.rows = s.rows[:0]
	s.dirty = s.dirty[:0]
	clear(s.slot)
}

// NewDeltaBuffer creates an empty delta buffer and registers it with the
// tracker so FlushDeltas barriers can publish it. Callers that ingest
// through explicit buffers (e.g. one per driver goroutine) must Release the
// buffer when done; the implicit entry points recycle buffers through an
// internal free list instead. Buffers work regardless of Config.DeltaBuffered,
// but only a delta-buffered tracker barriers its query paths — against an
// unbuffered tracker the caller owns flush timing entirely.
func (t *Tracker) NewDeltaBuffer() *DeltaBuffer {
	d := &DeltaBuffer{t: t}
	if t.cfg.DeltaSparse {
		d.spPair = make([]sparseCells, t.net.Len())
		d.spPar = make([]sparseCells, t.net.Len())
	} else {
		d.pair = make([][]int64, t.net.Len())
		d.par = make([][]int64, t.net.Len())
		k := t.cfg.Sites
		for i := 0; i < t.net.Len(); i++ {
			j, kk := t.net.Card(i), t.net.ParentCard(i)
			d.pair[i] = make([]int64, j*kk*k)
			d.par[i] = make([]int64, kk*k)
		}
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
	if d.spPair != nil {
		for i := 0; i < t.net.Len(); i++ {
			pidx := t.net.ParentIndex(i, x)
			d.spPair[i].add(pidx*t.net.Card(i)+x[i], site, k)
			d.spPar[i].add(pidx, site, k)
		}
	} else {
		for i := 0; i < t.net.Len(); i++ {
			pidx := t.net.ParentIndex(i, x)
			d.pair[i][(pidx*t.net.Card(i)+x[i])*k+site]++
			d.par[i][pidx*k+site]++
		}
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
	k := t.cfg.Sites
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		if d.spPair != nil {
			for _, i := range sh.vars {
				d.spPair[i].mergeInto(t.pair[i], k)
				d.spPar[i].mergeInto(t.par[i], k)
			}
		} else {
			for _, i := range sh.vars {
				t.pair[i].Merge(d.pair[i])
				t.par[i].Merge(d.par[i])
			}
		}
		t.unlockMutated(sh)
		for _, i := range sh.vars {
			if d.spPair != nil {
				d.spPair[i].reset()
				d.spPar[i].reset()
			} else {
				clear(d.pair[i])
				clear(d.par[i])
			}
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
