package counter

import (
	"fmt"
	"math"

	"distbayes/internal/bn"
)

// This file implements flat counter banks: the struct-of-arrays storage
// behind every distributed counter in the tracker's hot path.
//
// # Memory layout
//
// A Bank holds the state of `cells` logical counters of one Kind that share
// a site count k, an error parameter eps, a metrics sink and (for the
// randomized kind) an RNG. Instead of one heap object per counter, state
// lives in a few slices, split by what each phase of a counter reads:
//
//	every cell         total[cell] int64, slot[cell] int32               12 B
//	a record, HYZ      hyz[slot]: pThresh, base, estSum, adj, nReporters
//	                   (36 B of fields in a 40 B struct); per site
//	                   d[slot·k+site] and r[slot·k+site]                  40 + 16k B
//	a record, Det.     det[slot]: base, quantum, reported; per site
//	                   pending[slot·k+site]                               24 + 8k B
//
// A counter forwards every increment until its count reaches the point
// where reporting less is worthwhile (√k/ε for HYZ), and only then needs
// rounds, per-site deltas and a report probability — so a cell is given a
// round record when its first round opens (newRecord), not when the bank is
// built. slot[cell] is the index of that record and −1 while the cell is in
// exact mode: it takes the place of the per-cell flag the hot loops used to
// branch on and carries the index as well, so they load what they always
// did. On the paper's large networks nearly all cells stay cold — 4.6 % of
// netgen munin's 123 140 counters have a record after 125k events — which is
// 12 B a cell against the 109 B (k = 4) of allocating every plane for every
// cell up front. Counts only grow, so a counter never returns to its exact
// phase: a record is never freed, and with nothing freed nothing is ever
// compacted — a record never moves relative to its cell. The record slices
// grow ⌈cells/8⌉ records at a time and never past `cells`, so a bank
// reallocates at most eight times in its life and never holds more than an
// eighth of its dense size unused.
//
// Following slot costs an increment a dependent load the dense planes did
// not have, and the sequential tracker, which visits every bank for every
// event, felt it (−7 % events/s on alarm at k = 30). What won most of that
// back is fewer cache lines per visit: the coordinator's scalars of a round
// are one struct (a report or an estimate reads it, not one line of each of
// five planes), the Bank header is ordered by who reads what (see the
// struct), and Inc does the randomized increment in line.
//
// The Inc(cell, site) hot path is a direct method call on contiguous
// memory — no interface dispatch, no pointer chase through per-cell
// objects — and a whole bank costs O(1) allocations instead of O(cells).
//
// The per-cell protocol logic is an exact port of the historical per-cell
// counters (HYZ, Deterministic, Exact below, which are now thin one-cell
// views over a Bank): same branch structure, same RNG draw order, same
// message tallies. A sequence of Inc calls against a bank is bit-identical
// to the same sequence against individually allocated counters sharing the
// same RNG, which is what preserves the tracker's Shards=1 reproducibility
// guarantee; bank_test.go keeps the dense-plane protocol as the oracle the
// record layout is compared with.
//
// # Three kinds
//
// Every bank is one of the three kinds below. A counter that needs state no
// kind has is built beside the tracker: the time-decayed counters of
// internal/decay keep their decayed rows themselves, folding a bank's
// estimates into them at a block boundary (core.Tracker.Rotate reads them
// with EstimateRange) and returning the bank to its just-built state
// (Reset).

// Kind selects the distributed-counter protocol of a Bank's cells.
type Kind uint8

const (
	// ExactKind forwards every increment to the coordinator (Lemma 5).
	ExactKind Kind = iota
	// HYZKind is the randomized counter of Lemma 4 (the paper's choice).
	HYZKind
	// DeterministicKind is the classical O(k/ε·log T) threshold counter.
	DeterministicKind
)

// Bank is a flat struct-of-arrays bank of `cells` distributed counters that
// share one protocol kind, site count, error parameter, metrics sink and
// RNG. All methods taking a cell index expect 0 ≤ cell < Cells(); like a
// slice index, an out-of-range cell panics.
//
// A Bank is not safe for concurrent use, and neither is its tally: messages
// are counted into the metrics value with plain adds, so that value belongs
// to whoever serializes access to the bank. In the tracker every bank belongs
// to exactly one lock stripe and tallies into that stripe's private Metrics,
// which the stripe publishes to the tracker's live sink (Metrics.DrainTo)
// before each unlock — the LOCK XADD per message this replaces was 29% of
// munin ingest while counters run in exact mode. The one-cell views (HYZ,
// Deterministic) drain after every Inc, so their sink stays a race-safe
// shared one.
type Bank struct {
	// Field order is by cache line of the 64-byte-aligned struct: the first
	// holds what every increment reads, the second what a sampling-mode
	// increment adds, then what a report and a new round touch. The tracker
	// visits all its banks for every event, so a bank's header lines are as
	// much of the ingest working set as its cells.
	kind    Kind
	k       int
	rng     *bn.RNG
	metrics *Metrics

	// exactThresh caches ExactThreshold(k, eps) for the HYZ kind so the
	// exact-mode hot path does not recompute a sqrt per increment.
	exactThresh int64

	total []int64

	// slot is a cell's round-record index, −1 in exact mode (nil for
	// ExactKind). One of hyz and det holds the records, by kind, with the
	// per-site state of record s at [s*k, (s+1)*k) of d and r, or of
	// pending; records of them are handed out.
	slot    []int32
	d       []int64 // HYZ: slot*k + site
	hyz     []hyzRound
	r       []int64 // HYZ: slot*k + site
	det     []detRound
	pending []int64 // Deterministic: slot*k + site

	records int
	cells   int
	eps     float64

	// _ pads the struct to 256 bytes. The allocator's 256-byte size class is
	// what makes every Bank 64-byte aligned; at 232 bytes a bank lands in the
	// 240-byte class and its first line straddles two.
	_ [24]byte
}

// NewBank creates a bank of cells counters of the given kind over k sites
// with error parameter eps, tallying messages into metrics with plain
// (non-atomic) adds. metrics and rng (which feeds the randomized kind and is
// ignored by the others) may be shared with other banks driven under the same
// lock. delta is accepted for interface fidelity with DistCounter(ε, δ) and
// unused (see the HYZ type comment).
func NewBank(kind Kind, cells, k int, eps, delta float64, metrics *Metrics, rng *bn.RNG) (*Bank, error) {
	_ = delta
	if cells < 0 || cells > math.MaxInt32 {
		return nil, fmt.Errorf("counter: bank cells = %d, want 0..%d", cells, math.MaxInt32)
	}
	if metrics == nil {
		return nil, fmt.Errorf("counter: bank needs a metrics sink")
	}
	b := &Bank{kind: kind, k: k, cells: cells, eps: eps, metrics: metrics, rng: rng}
	switch kind {
	case ExactKind:
		if k < 1 {
			return nil, fmt.Errorf("counter: need at least one site, got %d", k)
		}
	case HYZKind:
		if err := validate(k, eps); err != nil {
			return nil, err
		}
		if rng == nil {
			return nil, fmt.Errorf("counter: randomized bank needs an RNG")
		}
		b.exactThresh = ExactThreshold(k, eps)
	case DeterministicKind:
		if err := validate(k, eps); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("counter: unknown bank kind %d", kind)
	}
	b.total = make([]int64, cells)
	if kind != ExactKind {
		b.slot = make([]int32, cells)
		b.resetRecords(0)
	}
	return b, nil
}

// resetRecords puts every cell in exact mode and sizes the record slices for
// exactly n records (a restored bank knows how many it needs).
func (b *Bank) resetRecords(n int) {
	for i := range b.slot {
		b.slot[i] = -1
	}
	b.records = 0
	b.resizeRecords(n)
}

// newRecord hands cell, whose first round is opening, the next round record
// and returns its index; the caller fills every field. Full slices grow by
// ⌈cells/8⌉ records, never past cells. Growth reallocates the record slices,
// so no loop keeps one in a local across a call that can get here.
func (b *Bank) newRecord(cell int) int {
	if b.records == b.room() {
		b.resizeRecords(min(b.records+(b.cells+7)/8, b.cells))
	}
	s := b.records
	b.records++
	b.slot[cell] = int32(s)
	return s
}

// resizeRecords reallocates the record slices to hold n records, keeping the
// contents of those that fit.
func (b *Bank) resizeRecords(n int) {
	if b.kind == HYZKind {
		b.hyz, b.d, b.r = resized(b.hyz, n), resized(b.d, n*b.k), resized(b.r, n*b.k)
	} else {
		b.det, b.pending = resized(b.det, n), resized(b.pending, n*b.k)
	}
}

// room is how many records the record slices hold (one of them is empty).
func (b *Bank) room() int { return len(b.hyz) + len(b.det) }

func resized[T any](s []T, n int) []T {
	t := make([]T, n)
	copy(t, s)
	return t
}

// Reset returns the bank to its just-built state: every total 0, every cell
// in exact mode, no round records. The metrics sink and the RNG carry on, and
// nothing is tallied — a fresh counter costs no messages.
func (b *Bank) Reset() {
	clear(b.total)
	if b.kind != ExactKind {
		b.resetRecords(0)
	}
}

// Cells returns the number of counters in the bank.
func (b *Bank) Cells() int { return b.cells }

// Inc records one increment for cell observed at site. This is the
// tracker's ingest hot path: it runs on the bank's flat state, the
// randomized kind's increment in line — the sequential tracker makes 2n of
// these calls per event, and a second call level under each cost it 4 %.
func (b *Bank) Inc(cell, site int) {
	switch b.kind {
	case ExactKind:
		b.total[cell]++
		b.metrics.SiteToCoord++
	case HYZKind:
		b.total[cell]++
		s := int(b.slot[cell])
		if s < 0 {
			// Exact mode: forward every increment.
			b.metrics.SiteToCoord++
			if b.total[cell] >= b.exactThresh {
				b.openRoundHYZ(cell)
			}
			return
		}
		b.d[s*b.k+site]++
		if b.rng.Uint64() < b.hyz[s].pThresh {
			b.reportHYZ(cell, s, site)
		}
	case DeterministicKind:
		b.incDet(cell, site)
	}
}

// IncBatch records one increment for every (cells[j], sites[j]) pair in
// order — the bulk write that EstimateRange is for reads. It is bit-identical
// to calling Inc per pair (same RNG draws in the same order, same messages,
// same state), with the kind switch, the per-cell slice headers and the
// exact-mode message tally hoisted out of the loop (the records are reached
// through the bank: a first round opening mid-run may reallocate them, and the
// RNG call of every sampling-mode increment spills hoisted headers anyway);
// the tracker's ingestion engine hands it one variable's whole run of a pass,
// so a bank's lines are loaded once per run rather than once per event.
// len(sites) must be at least len(cells).
func (b *Bank) IncBatch(cells, sites []int32) {
	sites = sites[:len(cells)]
	switch b.kind {
	case ExactKind:
		total := b.total
		for _, c := range cells {
			total[c]++
		}
		b.metrics.SiteToCoord += int64(len(cells))
	case HYZKind:
		k, total, slot := b.k, b.total, b.slot
		var forwarded int64 // exact-mode increments: one message each
		for j, c := range cells {
			cell := int(c)
			total[cell]++
			s := int(slot[cell])
			if s < 0 {
				forwarded++
				if total[cell] >= b.exactThresh {
					b.openRoundHYZ(cell)
				}
				continue
			}
			site := int(sites[j])
			b.d[s*k+site]++
			if b.rng.Uint64() < b.hyz[s].pThresh {
				b.reportHYZ(cell, s, site)
			}
		}
		b.metrics.SiteToCoord += forwarded
	case DeterministicKind:
		for j, c := range cells {
			b.incDet(int(c), int(sites[j]))
		}
	}
}

// Estimate returns the coordinator's current estimate of cell's count.
func (b *Bank) Estimate(cell int) float64 {
	switch b.kind {
	case ExactKind:
		return float64(b.total[cell])
	case HYZKind:
		s := int(b.slot[cell])
		if s < 0 {
			return float64(b.total[cell])
		}
		return float64(b.hyz[s].base) + b.hyz[s].inRound()
	default: // DeterministicKind
		s := b.slot[cell]
		if s < 0 {
			return float64(b.total[cell])
		}
		return float64(b.det[s].base + b.det[s].reported)
	}
}

// EstimateRange bulk-reads the estimates of cells [lo, hi) into
// dst[:hi-lo]: one kind-specialized pass over the flat struct-of-arrays
// state instead of a per-cell switch dispatch, bit-identical to calling
// Estimate on each cell. This is the snapshot-rebuild hot path — a
// munin-scale rebuild reads 123 140 cells, and the bulk loops keep the kind
// dispatch and slice-header loads out of the walk. An out-of-range [lo, hi)
// panics, like a slice expression; dst must hold at least hi-lo values.
func (b *Bank) EstimateRange(lo, hi int, dst []float64) {
	if lo < 0 || hi < lo || hi > b.cells {
		panic(fmt.Sprintf("counter: estimate range [%d,%d) outside [0,%d]", lo, hi, b.cells))
	}
	dst = dst[:hi-lo]
	switch b.kind {
	case ExactKind:
		for c, t := range b.total[lo:hi] {
			dst[c] = float64(t)
		}
	case HYZKind:
		total, hyz := b.total, b.hyz
		for c, s := range b.slot[lo:hi] {
			if s < 0 {
				dst[c] = float64(total[lo+c])
				continue
			}
			dst[c] = float64(hyz[s].base) + hyz[s].inRound() // Estimate's expression
		}
	case DeterministicKind:
		total, det := b.total, b.det
		for c, s := range b.slot[lo:hi] {
			if s < 0 {
				dst[c] = float64(total[lo+c])
				continue
			}
			dst[c] = float64(det[s].base + det[s].reported)
		}
	}
}

// Exact returns cell's true count (evaluation only).
func (b *Bank) Exact(cell int) int64 { return b.total[cell] }

// Merge folds a delta of per-(cell, site) increment counts into the bank,
// replaying each cell's counter protocol on the merged totals. delta is
// indexed cell*k + site and must have length Cells()·k; a mismatched length
// panics, like a slice misuse.
//
// Merging is equivalent to calling Inc once per recorded increment with the
// increments of one (cell, site) run applied back to back: exact totals are
// identical to any other interleaving of the same multiset (Inc totals are
// commutative), while message schedules and randomized estimates correspond
// to that batched interleaving — the same interleaving-dependence already
// accepted for sharded ingestion, so the per-counter (ε, δ) guarantee is
// preserved. The built-in kinds take bulk fast paths where the protocol
// allows: ExactKind folds a whole cell in O(1), the sampling kinds bulk-add
// the exact-mode prefix of a run and (for the deterministic counter) whole
// report quanta, falling back to per-increment replay only where an RNG draw
// or a threshold crossing requires it. This is the merge half of the
// tracker's delta-buffered ingestion mode (core.Config.DeltaBuffered).
func (b *Bank) Merge(delta []int64) {
	k := b.k
	if len(delta) != b.cells*k {
		panic(fmt.Sprintf("counter: merge delta length %d, want %d (%d cells x %d sites)", len(delta), b.cells*k, b.cells, k))
	}
	switch b.kind {
	case ExactKind:
		var msgs int64
		for cell := 0; cell < b.cells; cell++ {
			var sum int64
			for _, c := range delta[cell*k : (cell+1)*k] {
				sum += c
			}
			b.total[cell] += sum
			msgs += sum
		}
		b.metrics.SiteToCoord += msgs
	case HYZKind:
		for cell := 0; cell < b.cells; cell++ {
			row := delta[cell*k : (cell+1)*k]
			for site, c := range row {
				if c > 0 {
					b.mergeHYZ(cell, site, c)
				}
			}
		}
	case DeterministicKind:
		for cell := 0; cell < b.cells; cell++ {
			row := delta[cell*k : (cell+1)*k]
			for site, c := range row {
				if c > 0 {
					b.mergeDet(cell, site, c)
				}
			}
		}
	}
}

// mergeHYZ replays c increments of cell at site. The exact-mode prefix is
// bulk-added (each increment forwards one message and the round opens exactly
// when the total reaches the threshold, so the fold is bit-identical to the
// per-increment loop); sampling-mode increments replay individually because
// each draws the report coin.
func (b *Bank) mergeHYZ(cell, site int, c int64) {
	if b.slot[cell] < 0 {
		step := b.exactThresh - b.total[cell]
		if step > c {
			step = c
		}
		if step > 0 {
			b.total[cell] += step
			b.metrics.SiteToCoord += step
			c -= step
		}
		if b.total[cell] >= b.exactThresh {
			b.openRoundHYZ(cell)
		}
		if c == 0 {
			return
		}
	}
	// Per-increment replay with the per-cell state hoisted into locals; a
	// report can reset the round (total stays, d and pThresh change), so the
	// locals are written back before and reloaded after each one.
	s := int(b.slot[cell])
	idx := s*b.k + site
	tot, d, pt := b.total[cell], b.d[idx], b.hyz[s].pThresh
	for ; c > 0; c-- {
		tot++
		d++
		if b.rng.Uint64() < pt {
			b.total[cell], b.d[idx] = tot, d
			b.reportHYZ(cell, s, site)
			tot, d, pt = b.total[cell], b.d[idx], b.hyz[s].pThresh
		}
	}
	b.total[cell], b.d[idx] = tot, d
}

// mergeDet replays c increments of cell at site. Exact mode replays per
// increment (the round-opening threshold is a ceil of the running total);
// sampling mode advances whole report quanta at a time — a report fires on
// the increment that lifts the site's pending delta to the quantum, so a run
// folds into ⌊c/quantum⌋ reports plus a remainder, matching the
// per-increment loop exactly.
func (b *Bank) mergeDet(cell, site int, c int64) {
	for b.slot[cell] < 0 {
		if c == 0 {
			return
		}
		b.total[cell]++
		b.metrics.SiteToCoord++
		c--
		if q := int64(math.Ceil(b.eps * float64(b.total[cell]) / float64(b.k))); q >= 2 {
			b.openRoundDet(cell)
		}
	}
	s := int(b.slot[cell])
	rd, idx := &b.det[s], s*b.k+site
	for c > 0 {
		need := rd.quantum - b.pending[idx] // increments until a report fires
		if need > c {
			b.pending[idx] += c
			b.total[cell] += c
			return
		}
		b.pending[idx] += need
		b.total[cell] += need
		c -= need
		b.metrics.SiteToCoord++
		rd.reported += b.pending[idx]
		b.pending[idx] = 0
		if rd.reported >= rd.base {
			b.openRoundDet(cell) // resets every site's pending, new quantum
		}
	}
}

// --- HYZ protocol on flat state (see the HYZ type comment for the math) ---

// hyzRound is the coordinator's half of a randomized counter's round record.
type hyzRound struct {
	pThresh    uint64  // a site reports when its draw falls below p·2⁶⁴
	base       int64   // the exact count the round opened at
	estSum     int64   // Σ over reporting sites of their last reported delta
	adj        float64 // (1−p)/p, the expected unreported tail of a reporter
	nReporters int32
}

// setProb installs the derived sampling parameters of a round run at report
// probability p.
func (r *hyzRound) setProb(p float64) {
	if p >= 1 {
		r.pThresh, r.adj = math.MaxUint64, 0
	} else {
		r.pThresh, r.adj = uint64(p*math.MaxUint64), (1-p)/p
	}
}

// inRound is the coordinator's estimate of the increments since the round
// opened.
func (r *hyzRound) inRound() float64 {
	return float64(r.estSum) + float64(r.nReporters)*r.adj
}

// reportHYZ delivers site's current in-round delta to the coordinator and
// advances the round if the in-round estimate shows the count has doubled;
// s is cell's record.
func (b *Bank) reportHYZ(cell, s, site int) {
	b.metrics.SiteToCoord++
	rd, idx := &b.hyz[s], s*b.k+site
	if b.r[idx] == 0 {
		rd.nReporters++
	}
	rd.estSum += b.d[idx] - b.r[idx]
	b.r[idx] = b.d[idx]
	if rd.inRound() >= float64(rd.base) {
		b.openRoundHYZ(cell)
	}
}

// openRoundHYZ synchronizes all sites (k reports + k broadcasts) and resets
// the cell's in-round state with a new report probability; a cell's first
// round is where it gets its record.
func (b *Bank) openRoundHYZ(cell int) {
	s := int(b.slot[cell])
	if s < 0 {
		s = b.newRecord(cell)
	}
	b.metrics.SiteToCoord += int64(b.k)
	b.metrics.CoordToSite += int64(b.k)

	rd := &b.hyz[s]
	*rd = hyzRound{base: b.total[cell]}
	rd.setProb(ReportProb(b.k, b.eps, rd.base))
	clear(b.d[s*b.k : (s+1)*b.k])
	clear(b.r[s*b.k : (s+1)*b.k])
}

// --- deterministic threshold protocol on flat state ---

// detRound is the coordinator's half of a deterministic counter's round
// record: sites report every quantum local increments, reported sums them.
type detRound struct{ base, quantum, reported int64 }

func (b *Bank) incDet(cell, site int) {
	b.total[cell]++
	s := int(b.slot[cell])
	if s < 0 {
		b.metrics.SiteToCoord++
		// Exact until a quantum of at least 2 is worthwhile. Computed per
		// increment (not cached) to stay bit-identical to the historical
		// per-cell counter, whose threshold depends on the running total.
		if q := int64(math.Ceil(b.eps * float64(b.total[cell]) / float64(b.k))); q >= 2 {
			b.openRoundDet(cell)
		}
		return
	}
	rd, idx := &b.det[s], s*b.k+site
	b.pending[idx]++
	if b.pending[idx] >= rd.quantum {
		b.metrics.SiteToCoord++
		rd.reported += b.pending[idx]
		b.pending[idx] = 0
		if rd.reported >= rd.base {
			b.openRoundDet(cell)
		}
	}
}

func (b *Bank) openRoundDet(cell int) {
	s := int(b.slot[cell])
	if s < 0 {
		s = b.newRecord(cell)
	}
	b.metrics.SiteToCoord += int64(b.k)
	b.metrics.CoordToSite += int64(b.k)
	q := int64(math.Ceil(b.eps * float64(b.total[cell]) / float64(b.k)))
	if q < 1 {
		q = 1
	}
	b.det[s] = detRound{base: b.total[cell], quantum: q}
	clear(b.pending[s*b.k : (s+1)*b.k])
}
