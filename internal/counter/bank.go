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
// a site count k, an error parameter eps, a metrics tally and (for the
// randomized kind) an RNG. Instead of one heap object per counter, state
// lives in a few slices, split by what each phase of a counter reads:
//
//	every cell         word[cell] int64: the count, or ^record            8 B
//	a record, HYZ      hyz[s]: pThresh, base, estSum, adj, nReporters
//	                   (36 B of fields in a 40 B struct); per site
//	                   sites[s·k+site]: d and r side by side              40 + 16k B
//	every cell, one-way oneWay.sites[cell·k+site]: d, r and the pending
//	                   proposal (oneway.go)                               32k B
//
// A counter forwards every increment until its count reaches the point
// where reporting less is worthwhile (√k/ε for HYZ), and only then needs
// rounds, per-site deltas and a report probability — so a cell is given a
// round record when its first round opens (newRecord), not when the bank is
// built. Until then word[cell] is the cell's exact count (≥ 0); from then on
// it is ^s (< 0), s being the index of the cell's record. A sampling cell
// needs no count of its own, because the protocol keeps one in the record:
// its count is base + Σ_site d (a round opens at base and every increment
// since sits in one site's d). Exact, a new round and the checkpoint writer
// derive it in O(k); a sampling-mode increment writes no count at all, and an
// exact-mode one touches one array.
// On the paper's large networks nearly all cells stay cold — 4.6 % of
// netgen munin's 123 140 counters have a record after 125k events — which is
// 8 B a cell against the 109 B (k = 4) of allocating every plane for every
// cell up front. Counts only grow, so a counter never returns to its exact
// phase: a record is never freed, and with nothing freed nothing is ever
// compacted — a record never moves relative to its cell. The record slices
// double from one record and never grow past `cells`, so a bank reallocates
// at most ⌈log₂ cells⌉ + 1 times in its life and never holds as many unused
// records as used ones.
//
// Following the word to its record costs a sampling-mode increment a
// dependent load the dense planes did not have, and the sequential tracker,
// which visits every bank for every event, felt it (−7 % events/s on alarm
// at k = 30). What won most of that back is fewer cache lines per visit: the
// coordinator's scalars of a round are one struct (a report or an estimate
// reads it, not one line of each of five planes), a site's d and r share a
// line, the Bank header is two lines ordered by who reads what (see the
// struct), and Inc does the randomized increment in line.
//
// The Inc(cell, site) hot path is a direct method call on contiguous
// memory — no interface dispatch, no pointer chase through per-cell
// objects — and a whole bank costs O(1) allocations instead of O(cells).
//
// The per-cell protocol logic is an exact port of the historical per-cell
// counters: same branch structure, same RNG draw order, same message
// tallies. A sequence of Inc calls against a bank is bit-identical to the
// same sequence against one-cell banks sharing the same RNG, which is what
// preserves the tracker's Shards=1 reproducibility guarantee; bank_test.go
// keeps the dense-plane protocol as the oracle the record layout is compared
// with.
//
// # Three kinds
//
// Every bank is one of the three kinds below. The one-way kind has no
// rounds: its word is always the cell's count, and it gives every cell its
// per-site state when the bank is built.

// Kind selects the distributed-counter protocol of a Bank's cells.
type Kind uint8

// The values are the kind byte of a bank record. 2 is retired: it named a
// deterministic threshold counter that was removed, so a record carrying it
// is refused, and no new kind may take it.
const (
	// ExactKind forwards every increment to the coordinator (Lemma 5).
	ExactKind Kind = 0
	// HYZKind is the randomized counter of Lemma 4 (the paper's choice).
	HYZKind Kind = 1
	// OneWayKind is the live cluster's coordinator-free counter (oneway.go).
	// It has no state record: MarshalBinary refuses it, and UnmarshalBinary
	// refuses its kind byte.
	OneWayKind Kind = 3
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
// munin ingest while counters run in exact mode.
type Bank struct {
	// Field order is by cache line of the 64-byte-aligned struct: the first
	// holds everything an exact-mode increment reads, of every kind, the
	// second what a sampling-mode increment, a report and a new round add.
	// The tracker visits all its banks for every event, so a bank's header
	// lines are as much of the ingest working set as its cells.

	// word is a cell's exact count (≥ 0) in exact mode and ^s once it holds
	// round record s (a one-way cell holds no record: its word is always its
	// count); len(word) is the bank's cell count.
	word    []int64
	metrics *Metrics

	// exactThresh caches ExactThreshold(k, eps) for the HYZ kind, and
	// OneWayExactUntil for the one-way kind, so the exact-mode hot path does
	// not recompute a sqrt per increment.
	exactThresh int64
	eps         float64
	k           int
	kind        Kind
	records     int32 // records handed out, a prefix of the record slices

	rng *bn.RNG

	// The round records of a HYZ bank: record s is hyz[s], with its per-site
	// state at sites[s*k : (s+1)*k].
	hyz   []hyzRound
	sites []hyzSite
	// oneWay is a one-way bank's state (oneway.go), which has no records;
	// nil for the other kinds.
	oneWay *oneWayBank

	// The struct is 128 bytes, in the allocator's 128-byte size class, which
	// is what makes every Bank 64-byte aligned, so each half is one cache
	// line (TestBankHeaderLines holds both).
}

// NewBank creates a bank of cells counters of the given kind over k sites
// with error parameter eps, tallying messages into metrics with plain
// (non-atomic) adds. metrics and rng (which feeds the randomized kind and is
// ignored by the exact one) may be shared with other banks driven under the same
// lock. delta is accepted for interface fidelity with DistCounter(ε, δ) and
// unused (see the package comment).
func NewBank(kind Kind, cells, k int, eps, delta float64, metrics *Metrics, rng *bn.RNG) (*Bank, error) {
	_ = delta
	if cells < 0 || cells > math.MaxInt32 {
		return nil, fmt.Errorf("counter: bank cells = %d, want 0..%d", cells, math.MaxInt32)
	}
	if metrics == nil {
		return nil, fmt.Errorf("counter: bank needs a metrics sink")
	}
	b := &Bank{kind: kind, k: k, eps: eps, metrics: metrics, rng: rng}
	switch kind {
	case ExactKind:
		if k < 1 {
			return nil, fmt.Errorf("counter: need at least one site, got %d", k)
		}
	case HYZKind, OneWayKind:
		if err := validate(k, eps); err != nil {
			return nil, err
		}
		if rng == nil {
			return nil, fmt.Errorf("counter: randomized bank needs an RNG")
		}
		b.exactThresh = ExactThreshold(k, eps)
		if kind == OneWayKind {
			sqrtK := math.Sqrt(float64(k))
			b.exactThresh = OneWayExactUntil(k, sqrtK, eps)
			b.oneWay = &oneWayBank{sites: make([]oneWaySite, cells*k), sqrtK: sqrtK}
		}
	default:
		return nil, fmt.Errorf("counter: unknown bank kind %d", kind)
	}
	b.word = make([]int64, cells)
	return b, nil
}

// resetRecords drops every round record and sizes the record slices for
// exactly n (a restored bank knows how many it needs). The caller rewrites
// every word that named a record.
func (b *Bank) resetRecords(n int) {
	b.records = 0
	b.resizeRecords(n)
}

// newRecord hands cell, whose first round is opening, the next round record
// and returns its index; the caller fills every field. Full slices double,
// from one record and never past the cell count. Growth reallocates the
// record slices, so no loop keeps one in a local across a call that can get
// here.
func (b *Bank) newRecord(cell int) int {
	if int(b.records) == b.room() {
		b.resizeRecords(min(max(2*b.room(), 1), len(b.word)))
	}
	s := int(b.records)
	b.records++
	b.word[cell] = ^int64(s)
	return s
}

// resizeRecords reallocates the record slices to hold n records, keeping the
// contents of those that fit.
func (b *Bank) resizeRecords(n int) {
	b.hyz, b.sites = resized(b.hyz, n), resized(b.sites, n*b.k)
}

// room is how many records the record slices hold.
func (b *Bank) room() int { return len(b.hyz) }

func resized[T any](s []T, n int) []T {
	t := make([]T, n)
	copy(t, s)
	return t
}

// Cells returns the number of counters in the bank.
func (b *Bank) Cells() int { return len(b.word) }

// Inc records one increment for cell observed at site. This is the
// tracker's ingest hot path: it runs on the bank's flat state, the
// randomized kind's increment in line — the sequential tracker makes 2n of
// these calls per event, and a second call level under each cost it 4 %.
func (b *Bank) Inc(cell, site int) {
	switch b.kind {
	case ExactKind:
		b.word[cell]++
		b.metrics.SiteToCoord++
	case HYZKind:
		v := b.word[cell]
		if v >= 0 {
			// Exact mode: forward every increment.
			v++
			b.word[cell] = v
			b.metrics.SiteToCoord++
			if v >= b.exactThresh {
				b.openRoundHYZ(cell)
			}
			return
		}
		s := int(^v)
		b.sites[s*b.k+site].d++
		if b.rng.Uint64() < b.hyz[s].pThresh {
			b.reportHYZ(cell, s, site)
		}
	case OneWayKind:
		b.incOneWay(cell, site)
	}
}

// IncBatch records one increment for every (cells[j], sites[j]) pair in
// order — the bulk write that EstimateRange is for reads. It is bit-identical
// to calling Inc per pair (same RNG draws in the same order, same messages,
// same state), with the kind switch, the word slice header and the
// exact-mode message tally hoisted out of the loop (the records are reached
// through the bank: a first round opening mid-run may reallocate them);
// the tracker's ingestion engine hands it one variable's whole run of a pass,
// so a bank's lines are loaded once per run rather than once per event.
// len(sites) must be at least len(cells).
func (b *Bank) IncBatch(cells, sites []int32) {
	sites = sites[:len(cells)]
	switch b.kind {
	case ExactKind:
		word := b.word
		for _, c := range cells {
			word[c]++
		}
		b.metrics.SiteToCoord += int64(len(cells))
	case HYZKind:
		k, word := b.k, b.word
		var forwarded int64 // exact-mode increments: one message each
		for j, c := range cells {
			v := word[c]
			if v >= 0 {
				forwarded++
				v++
				word[c] = v
				if v >= b.exactThresh {
					b.openRoundHYZ(int(c))
				}
				continue
			}
			s, site := int(^v), int(sites[j])
			b.sites[s*k+site].d++
			if b.rng.Uint64() < b.hyz[s].pThresh {
				b.reportHYZ(int(c), s, site)
			}
		}
		b.metrics.SiteToCoord += forwarded
	case OneWayKind:
		for j, c := range cells {
			b.incOneWay(int(c), int(sites[j]))
		}
	}
}

// Estimate returns the coordinator's current estimate of cell's count.
func (b *Bank) Estimate(cell int) float64 {
	if b.kind == OneWayKind {
		return b.estimateOneWay(cell)
	}
	v := b.word[cell]
	if v >= 0 {
		return float64(v)
	}
	rd := &b.hyz[^v]
	return float64(rd.base) + rd.inRound()
}

// EstimateRange bulk-reads the estimates of cells [lo, hi) into
// dst[:hi-lo]: one kind-specialized pass over the flat struct-of-arrays
// state instead of a per-cell switch dispatch, bit-identical to calling
// Estimate on each cell. This is the snapshot-rebuild hot path — a
// munin-scale rebuild reads 123 140 cells, and the bulk loops keep the kind
// dispatch and slice-header loads out of the walk. An out-of-range [lo, hi)
// panics, like a slice expression; dst must hold at least hi-lo values.
func (b *Bank) EstimateRange(lo, hi int, dst []float64) {
	if lo < 0 || hi < lo || hi > len(b.word) {
		panic(fmt.Sprintf("counter: estimate range [%d,%d) outside [0,%d]", lo, hi, len(b.word)))
	}
	dst = dst[:hi-lo]
	switch b.kind {
	case ExactKind:
		for c, v := range b.word[lo:hi] {
			dst[c] = float64(v)
		}
	case HYZKind:
		hyz := b.hyz
		for c, v := range b.word[lo:hi] {
			if v >= 0 {
				dst[c] = float64(v)
				continue
			}
			rd := &hyz[^v]
			dst[c] = float64(rd.base) + rd.inRound() // Estimate's expression
		}
	case OneWayKind:
		for c := range dst {
			dst[c] = b.estimateOneWay(lo + c)
		}
	}
}

// Exact returns cell's true count (evaluation only).
func (b *Bank) Exact(cell int) int64 {
	v := b.word[cell]
	if v < 0 {
		return b.recordCount(int(^v))
	}
	return v
}

// recordCount derives the exact count of the cell holding record s from the
// record: base + Σ_site d (see "Memory layout").
func (b *Bank) recordCount(s int) int64 {
	n := b.hyz[s].base
	for _, st := range b.sites[s*b.k : (s+1)*b.k] {
		n += st.d
	}
	return n
}

// Merge folds a delta of per-(cell, site) increment counts into the bank by
// replay: cells ascending, then sites, each (cell, site) run applied back to
// back through Inc. delta is indexed cell*k + site and must have length
// Cells()·k; a mismatched length panics, like a slice misuse. Exact totals
// equal those of any other order of the same increments; message schedules
// and randomized estimates are those of this one.
//
// Nothing in the module calls Merge. It stays because the frozen repository
// benchmark (benchmarks/) times it as its counter.merge_ns_per_cell probe.
func (b *Bank) Merge(delta []int64) {
	k, cells := b.k, len(b.word)
	if len(delta) != cells*k {
		panic(fmt.Sprintf("counter: merge delta length %d, want %d (%d cells x %d sites)", len(delta), cells*k, cells, k))
	}
	for cell := range cells {
		for site, c := range delta[cell*k : (cell+1)*k] {
			for ; c > 0; c-- {
				b.Inc(cell, site)
			}
		}
	}
}

// openRecord returns the record and exact count of cell as one of its rounds
// opens, handing the cell its record if this is its first.
func (b *Bank) openRecord(cell int) (s int, count int64) {
	v := b.word[cell]
	if v >= 0 {
		return b.newRecord(cell), v
	}
	s = int(^v)
	return s, b.recordCount(s)
}

// --- HYZ protocol on flat state (see the package comment for the math) ---

// hyzRound is the coordinator's half of a randomized counter's round record.
type hyzRound struct {
	pThresh    uint64  // a site reports when its draw falls below p·2⁶⁴
	base       int64   // the exact count the round opened at
	estSum     int64   // Σ over reporting sites of their last reported delta
	adj        float64 // (1−p)/p, the expected unreported tail of a reporter
	nReporters int32
}

// hyzSite is one site's half of a randomized counter's round record: its
// in-round delta d and the delta r it last reported, side by side so a
// report reads and writes one line.
type hyzSite struct{ d, r int64 }

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
	rd, st := &b.hyz[s], &b.sites[s*b.k+site]
	if st.r == 0 {
		rd.nReporters++
	}
	rd.estSum += st.d - st.r
	st.r = st.d
	if rd.inRound() >= float64(rd.base) {
		b.openRoundHYZ(cell)
	}
}

// openRoundHYZ synchronizes all sites (k reports + k broadcasts) and resets
// the cell's in-round state with a new report probability; a cell's first
// round is where it gets its record.
func (b *Bank) openRoundHYZ(cell int) {
	s, count := b.openRecord(cell)
	b.metrics.SiteToCoord += int64(b.k)
	b.metrics.CoordToSite += int64(b.k)

	rd := &b.hyz[s]
	*rd = hyzRound{base: count}
	rd.setProb(ReportProb(b.k, b.eps, rd.base))
	clear(b.sites[s*b.k : (s+1)*b.k])
}
