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
// randomized kind) an RNG. Instead of one heap object per counter, all
// per-cell scalars live in parallel slices indexed by cell —
//
//	total[cell], sampling[cell], base[cell], pThresh[cell], adj[cell],
//	estSum[cell], nReporters[cell], quantum[cell], reported[cell]
//
// — and the per-site round state lives in single backing slices indexed by
// cell*k + site:
//
//	d[cell*k+site]        HYZ: in-round local increments
//	r[cell*k+site]        HYZ: last reported in-round delta
//	pending[cell*k+site]  Deterministic: unreported local increments
//
// The Inc(cell, site) hot path is therefore a direct method call on
// contiguous memory — no interface dispatch, no pointer chase through
// per-cell objects — and a whole bank costs O(1) allocations instead of
// O(cells).
//
// The per-cell protocol logic is an exact port of the historical per-cell
// counters (HYZ, Deterministic, Exact below, which are now thin one-cell
// views over a Bank): same branch structure, same RNG draw order, same
// message tallies. A sequence of Inc calls against a bank is bit-identical
// to the same sequence against individually allocated counters sharing the
// same RNG, which is what preserves the tracker's Shards=1 reproducibility
// guarantee across the flat-layout refactor.
//
// # Custom cells
//
// A bank built with NewCustomBank stores one Counter interface value per
// cell instead of flat state. This is the extension point used by
// core.Config.CounterFactory (e.g. the time-decayed counters of
// internal/decay): the tracker drives every bank through the same
// Inc/Estimate/Exact indexed API, and custom banks forward to the per-cell
// objects.

// Kind selects the distributed-counter protocol of a Bank's cells.
type Kind uint8

const (
	// ExactKind forwards every increment to the coordinator (Lemma 5).
	ExactKind Kind = iota
	// HYZKind is the randomized counter of Lemma 4 (the paper's choice).
	HYZKind
	// DeterministicKind is the classical O(k/ε·log T) threshold counter.
	DeterministicKind
	// customKind marks a bank whose cells are caller-supplied Counter
	// values (NewCustomBank).
	customKind
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
	kind    Kind
	k       int
	cells   int
	eps     float64
	metrics *Metrics
	rng     *bn.RNG

	// exactThresh caches ExactThreshold(k, eps) for the HYZ kind so the
	// exact-mode hot path does not recompute a sqrt per increment.
	exactThresh int64

	total []int64

	// Round state shared by the sampling kinds (nil for ExactKind).
	sampling []bool
	base     []int64

	// HYZ state.
	pThresh    []uint64
	adj        []float64
	estSum     []int64
	nReporters []int32
	d, r       []int64 // cell*k + site

	// Deterministic state.
	quantum  []int64
	reported []int64
	pending  []int64 // cell*k + site

	// custom is non-nil iff kind == customKind.
	custom []Counter
}

// NewBank creates a bank of cells counters of the given kind over k sites
// with error parameter eps, tallying messages into metrics with plain
// (non-atomic) adds. metrics and rng (which feeds the randomized kind and is
// ignored by the others) may be shared with other banks driven under the same
// lock. delta is accepted for interface fidelity with DistCounter(ε, δ) and
// unused (see the HYZ type comment).
func NewBank(kind Kind, cells, k int, eps, delta float64, metrics *Metrics, rng *bn.RNG) (*Bank, error) {
	_ = delta
	if cells < 0 {
		return nil, fmt.Errorf("counter: bank cells = %d, want >= 0", cells)
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
		b.total = make([]int64, cells)
	case HYZKind:
		if err := validate(k, eps); err != nil {
			return nil, err
		}
		if rng == nil {
			return nil, fmt.Errorf("counter: randomized bank needs an RNG")
		}
		b.exactThresh = ExactThreshold(k, eps)
		b.total = make([]int64, cells)
		b.sampling = make([]bool, cells)
		b.base = make([]int64, cells)
		b.pThresh = make([]uint64, cells)
		b.adj = make([]float64, cells)
		b.estSum = make([]int64, cells)
		b.nReporters = make([]int32, cells)
		// One contiguous slab for both per-site planes keeps the d/r pair
		// of a cell on adjacent cache lines.
		slab := make([]int64, 2*cells*k)
		b.d, b.r = slab[:cells*k:cells*k], slab[cells*k:]
	case DeterministicKind:
		if err := validate(k, eps); err != nil {
			return nil, err
		}
		b.total = make([]int64, cells)
		b.sampling = make([]bool, cells)
		b.base = make([]int64, cells)
		b.quantum = make([]int64, cells)
		b.reported = make([]int64, cells)
		b.pending = make([]int64, cells*k)
	default:
		return nil, fmt.Errorf("counter: unknown bank kind %d", kind)
	}
	return b, nil
}

// NewCustomBank creates a bank whose cells are caller-supplied Counter
// values, built by calling newCell once per cell in ascending order. It is
// the Config.CounterFactory extension point: custom banks keep per-cell
// interface dispatch but present the same indexed API as flat banks.
func NewCustomBank(cells int, newCell func(cell int) (Counter, error)) (*Bank, error) {
	if cells < 0 {
		return nil, fmt.Errorf("counter: bank cells = %d, want >= 0", cells)
	}
	b := &Bank{kind: customKind, cells: cells, custom: make([]Counter, cells)}
	for c := 0; c < cells; c++ {
		cc, err := newCell(c)
		if err != nil {
			return nil, err
		}
		if cc == nil {
			return nil, fmt.Errorf("counter: nil custom counter for cell %d", c)
		}
		b.custom[c] = cc
	}
	return b, nil
}

// Cells returns the number of counters in the bank.
func (b *Bank) Cells() int { return b.cells }

// Inc records one increment for cell observed at site. This is the
// tracker's ingest hot path: for the built-in kinds it runs devirtualized
// on the bank's flat state.
func (b *Bank) Inc(cell, site int) {
	switch b.kind {
	case ExactKind:
		b.total[cell]++
		b.metrics.SiteToCoord++
	case HYZKind:
		b.incHYZ(cell, site)
	case DeterministicKind:
		b.incDet(cell, site)
	default:
		b.custom[cell].Inc(site)
	}
}

// IncBatch records one increment for every (cells[j], sites[j]) pair in
// order — the bulk write that EstimateRange is for reads. It is bit-identical
// to calling Inc per pair (same RNG draws in the same order, same messages,
// same state), with the kind switch, the slice headers and the exact-mode
// message tally hoisted out of the loop; the tracker's ingestion engine hands it
// one variable's whole run of a pass, so a bank's lines are loaded once per
// run rather than once per event. len(sites) must be at least len(cells).
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
		k, total, sampling, d, pThresh := b.k, b.total, b.sampling, b.d, b.pThresh
		var forwarded int64 // exact-mode increments: one message each
		for j, c := range cells {
			cell := int(c)
			total[cell]++
			if !sampling[cell] {
				forwarded++
				if total[cell] >= b.exactThresh {
					b.openRoundHYZ(cell)
				}
				continue
			}
			site := int(sites[j])
			d[cell*k+site]++
			if b.rng.Uint64() < pThresh[cell] {
				b.reportHYZ(cell, site)
			}
		}
		b.metrics.SiteToCoord += forwarded
	case DeterministicKind:
		for j, c := range cells {
			b.incDet(int(c), int(sites[j]))
		}
	default:
		for j, c := range cells {
			b.custom[c].Inc(int(sites[j]))
		}
	}
}

// Estimate returns the coordinator's current estimate of cell's count.
func (b *Bank) Estimate(cell int) float64 {
	switch b.kind {
	case ExactKind:
		return float64(b.total[cell])
	case HYZKind:
		if !b.sampling[cell] {
			return float64(b.total[cell])
		}
		return float64(b.base[cell]) + b.inRoundEstimate(cell)
	case DeterministicKind:
		if !b.sampling[cell] {
			return float64(b.total[cell])
		}
		return float64(b.base[cell] + b.reported[cell])
	default:
		return b.custom[cell].Estimate()
	}
}

// EstimateRange bulk-reads the estimates of cells [lo, hi) into
// dst[:hi-lo]: one kind-specialized pass over the flat struct-of-arrays
// state instead of a per-cell switch dispatch, bit-identical to calling
// Estimate on each cell. This is the snapshot-rebuild hot path — a
// munin-scale rebuild reads ~80k cells, and the bulk loops keep the kind
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
		total, sampling, base := b.total, b.sampling, b.base
		estSum, nRep, adj := b.estSum, b.nReporters, b.adj
		for c := lo; c < hi; c++ {
			if !sampling[c] {
				dst[c-lo] = float64(total[c])
				continue
			}
			// Parenthesized to keep Estimate's association:
			// base + (estSum + nReporters·adj), cf. inRoundEstimate.
			dst[c-lo] = float64(base[c]) + (float64(estSum[c]) + float64(nRep[c])*adj[c])
		}
	case DeterministicKind:
		total, sampling := b.total, b.sampling
		base, reported := b.base, b.reported
		for c := lo; c < hi; c++ {
			if !sampling[c] {
				dst[c-lo] = float64(total[c])
				continue
			}
			dst[c-lo] = float64(base[c] + reported[c])
		}
	default:
		for c := lo; c < hi; c++ {
			dst[c-lo] = b.custom[c].Estimate()
		}
	}
}

// Exact returns cell's true count (evaluation only).
func (b *Bank) Exact(cell int) int64 {
	if b.kind == customKind {
		return b.custom[cell].Exact()
	}
	return b.total[cell]
}

// Merge folds a delta of per-(cell, site) increment counts into the bank,
// replaying each cell's counter protocol on the merged totals. delta is
// indexed cell*k + site and must have length Cells()·k; for custom banks,
// whose site count is not recorded, the stride k is derived as
// len(delta)/Cells(). A mismatched length panics, like a slice misuse.
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
	if b.kind == customKind {
		if b.cells == 0 {
			if len(delta) != 0 {
				panic(fmt.Sprintf("counter: merge delta of %d cells into empty bank", len(delta)))
			}
			return
		}
		if len(delta)%b.cells != 0 {
			panic(fmt.Sprintf("counter: merge delta length %d not a multiple of %d cells", len(delta), b.cells))
		}
		k = len(delta) / b.cells
	} else if len(delta) != b.cells*k {
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
	default:
		for cell := 0; cell < b.cells; cell++ {
			row := delta[cell*k : (cell+1)*k]
			for site, c := range row {
				for ; c > 0; c-- {
					b.custom[cell].Inc(site)
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
	if !b.sampling[cell] {
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
	idx := cell*b.k + site
	tot, d, pt := b.total[cell], b.d[idx], b.pThresh[cell]
	for ; c > 0; c-- {
		tot++
		d++
		if b.rng.Uint64() < pt {
			b.total[cell], b.d[idx] = tot, d
			b.reportHYZ(cell, site)
			tot, d, pt = b.total[cell], b.d[idx], b.pThresh[cell]
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
	for !b.sampling[cell] {
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
	idx := cell*b.k + site
	for c > 0 {
		need := b.quantum[cell] - b.pending[idx] // increments until a report fires
		if need > c {
			b.pending[idx] += c
			b.total[cell] += c
			return
		}
		b.pending[idx] += need
		b.total[cell] += need
		c -= need
		b.metrics.SiteToCoord++
		b.reported[cell] += b.pending[idx]
		b.pending[idx] = 0
		if b.reported[cell] >= b.base[cell] {
			b.openRoundDet(cell) // resets every site's pending, new quantum
		}
	}
}

// --- HYZ protocol on flat state (see the HYZ type comment for the math) ---

func (b *Bank) incHYZ(cell, site int) {
	b.total[cell]++
	if !b.sampling[cell] {
		// Exact mode: forward every increment.
		b.metrics.SiteToCoord++
		if b.total[cell] >= b.exactThresh {
			b.openRoundHYZ(cell)
		}
		return
	}
	b.d[cell*b.k+site]++
	if b.rng.Uint64() < b.pThresh[cell] {
		b.reportHYZ(cell, site)
	}
}

// reportHYZ delivers site's current in-round delta to the coordinator and
// advances the round if the in-round estimate shows the count has doubled.
func (b *Bank) reportHYZ(cell, site int) {
	b.metrics.SiteToCoord++
	idx := cell*b.k + site
	if b.r[idx] == 0 {
		b.nReporters[cell]++
	}
	b.estSum[cell] += b.d[idx] - b.r[idx]
	b.r[idx] = b.d[idx]
	if b.inRoundEstimate(cell) >= float64(b.base[cell]) {
		b.openRoundHYZ(cell)
	}
}

// openRoundHYZ synchronizes all sites (k reports + k broadcasts) and resets
// the cell's in-round state with a new report probability.
func (b *Bank) openRoundHYZ(cell int) {
	b.sampling[cell] = true
	b.metrics.SiteToCoord += int64(b.k)
	b.metrics.CoordToSite += int64(b.k)

	b.base[cell] = b.total[cell]
	b.setRoundParams(cell, ReportProb(b.k, b.eps, b.base[cell]))
	lo := cell * b.k
	for i := lo; i < lo+b.k; i++ {
		b.d[i] = 0
		b.r[i] = 0
	}
	b.estSum[cell] = 0
	b.nReporters[cell] = 0
}

// setRoundParams installs the derived sampling parameters for a round run at
// report probability p.
func (b *Bank) setRoundParams(cell int, p float64) {
	if p >= 1 {
		b.pThresh[cell] = math.MaxUint64
		b.adj[cell] = 0
	} else {
		b.pThresh[cell] = uint64(p * math.MaxUint64)
		b.adj[cell] = (1 - p) / p
	}
}

// inRoundEstimate is the coordinator's estimate of cell's increments since
// the round opened.
func (b *Bank) inRoundEstimate(cell int) float64 {
	return float64(b.estSum[cell]) + float64(b.nReporters[cell])*b.adj[cell]
}

// --- deterministic threshold protocol on flat state ---

func (b *Bank) incDet(cell, site int) {
	b.total[cell]++
	if !b.sampling[cell] {
		b.metrics.SiteToCoord++
		// Exact until a quantum of at least 2 is worthwhile. Computed per
		// increment (not cached) to stay bit-identical to the historical
		// per-cell counter, whose threshold depends on the running total.
		if q := int64(math.Ceil(b.eps * float64(b.total[cell]) / float64(b.k))); q >= 2 {
			b.openRoundDet(cell)
		}
		return
	}
	idx := cell*b.k + site
	b.pending[idx]++
	if b.pending[idx] >= b.quantum[cell] {
		b.metrics.SiteToCoord++
		b.reported[cell] += b.pending[idx]
		b.pending[idx] = 0
		if b.reported[cell] >= b.base[cell] {
			b.openRoundDet(cell)
		}
	}
}

func (b *Bank) openRoundDet(cell int) {
	b.sampling[cell] = true
	b.metrics.SiteToCoord += int64(b.k)
	b.metrics.CoordToSite += int64(b.k)
	b.base[cell] = b.total[cell]
	q := int64(math.Ceil(b.eps * float64(b.base[cell]) / float64(b.k)))
	if q < 1 {
		q = 1
	}
	b.quantum[cell] = q
	lo := cell * b.k
	for i := lo; i < lo+b.k; i++ {
		b.pending[i] = 0
	}
	b.reported[cell] = 0
}
