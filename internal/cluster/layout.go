package cluster

import (
	"math"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
)

// counterLayout assigns a dense global id to every distributed counter of a
// network: for each variable, first its J_i·K_i pair counters (in CPT order,
// pidx·J_i + value), then its K_i parent counters — the row a core.Snapshot
// reads, so the coordinator's snapshot is a view of its estimate vector.
// Sites and the coordinator compute the same layout independently from the
// regenerated network, so counter ids never travel in full.
type counterLayout struct {
	net     *bn.Network
	pairOff []uint32
	parOff  []uint32
	total   uint32
	// sections are the contiguous equal-eps id ranges (per variable: its
	// pair block, then its parent block) in ascending id order, covering
	// [0, total) exactly.
	sections []section
}

// section is one contiguous counter-id range sharing a single error
// parameter. Bulk walks over the whole counter space — the coordinator's
// snapshot rebuild — iterate sections so the eps lookup hoists out of the
// inner loop (the coordinator-side sibling of counter.Bank.EstimateRange).
type section struct {
	lo, hi uint32
	eps    float64
}

// newCounterLayout computes the layout and per-counter error parameters for
// the given strategy and budget.
func newCounterLayout(net *bn.Network, strategy core.Strategy, eps float64) (*counterLayout, error) {
	alloc, err := core.Allocate(net, strategy, eps)
	if err != nil {
		return nil, err
	}
	l := &counterLayout{
		net:      net,
		pairOff:  make([]uint32, net.Len()),
		parOff:   make([]uint32, net.Len()),
		sections: make([]section, 0, 2*net.Len()),
	}
	off := uint32(0)
	for i := 0; i < net.Len(); i++ {
		l.pairOff[i] = off
		off += uint32(net.Card(i) * net.ParentCard(i))
		l.parOff[i] = off
		off += uint32(net.ParentCard(i))
		l.sections = append(l.sections,
			section{lo: l.pairOff[i], hi: l.parOff[i], eps: alloc.EpsA[i]},
			section{lo: l.parOff[i], hi: off, eps: alloc.EpsB[i]})
	}
	l.total = off
	return l, nil
}

// NumCounters returns the total number of counters.
func (l *counterLayout) NumCounters() uint32 { return l.total }

// siteCounters is the site half of the one-way counter protocol
// (counter.OneWayKind) as one self-contained type: every counter's local
// count and pending report proposal in one dense slice indexed by layout
// counter id, the latest decided report per counter with the window of
// counters decided since the last drain, and per-variable report constants.
//
// Bit-identity contract: event makes the decisions of the per-id loop
// (sitekernel_test.go keeps it as the oracle) — variables ascending, pair
// counter before parent counter, a report whenever the count is within
// counter.OneWayExactUntil, and past it a decision only at the counter's
// pending proposal, by counter.OneWayGap.Decide — so the same
// counters report at the same counts after the same draws in the same order.
// A one-way counter.Bank decides the same way, which is what lets a
// core.Tracker reproduce a cluster run bit for bit.
type siteCounters struct {
	k     int
	sqrtK float64
	ctrs  []siteCounter
	// reported.vals[id] is the latest local count the site decided to report
	// for counter id (0 = never) — the crux of crash safety, see siteRun — and
	// its dirty set is the pending window. Ids suffice there: counts are
	// monotone, so the latest decision subsumes the window's earlier ones.
	reported dirtyVec
	vars     []siteVar
}

// siteCounter is one counter at a site: its local count n and its pending
// proposal, interleaved so that an increment between proposals loads, adds,
// stores and compares within one record.
type siteCounter struct {
	n   int64
	gap counter.OneWayGap
}

// siteVar holds one variable's id offsets and, for its pair ([0]) and parent
// ([1]) counters, the error parameter and counter.OneWayExactUntil.
type siteVar struct {
	pairOff, parOff, card uint32
	eps                   [2]float64
	exactUntil            [2]int64
}

func newSiteCounters(layout *counterLayout, k int) *siteCounters {
	s := &siteCounters{
		k:        k,
		sqrtK:    math.Sqrt(float64(k)),
		ctrs:     make([]siteCounter, layout.NumCounters()),
		reported: newDirtyVec(layout.NumCounters()),
		vars:     make([]siteVar, layout.net.Len()),
	}
	for i := range s.vars {
		v := &s.vars[i]
		v.pairOff, v.parOff, v.card = layout.pairOff[i], layout.parOff[i], uint32(layout.net.Card(i))
		for j := range v.eps {
			v.eps[j] = layout.sections[2*i+j].eps
			v.exactUntil[j] = counter.OneWayExactUntil(k, s.sqrtK, v.eps[j])
		}
	}
	return s
}

// event counts one stream event — x with its parent-configuration indices
// over the layout's network — on the 2n counters it touches and decides each
// one's report: within the exact phase always, past it at the counter's
// pending proposal only. The pair and parent counters are written out, not
// looped over: a loop over the two measured ~100 ns slower per alarm event
// (docs/runs/pr42.txt).
func (s *siteCounters) event(x, pidx []int, rng *bn.RNG) {
	for i := range s.vars {
		v := &s.vars[i]
		p := uint32(pidx[i])
		if id := v.pairOff + p*v.card + uint32(x[i]); s.inc(id) {
			if n := s.ctrs[id].n; n <= v.exactUntil[0] || s.ctrs[id].gap.Decide(rng, s.k, s.sqrtK, v.eps[0], n) {
				s.reported.set(id, n)
			}
		}
		if id := v.parOff + p; s.inc(id) {
			if n := s.ctrs[id].n; n <= v.exactUntil[1] || s.ctrs[id].gap.Decide(rng, s.k, s.sqrtK, v.eps[1], n) {
				s.reported.set(id, n)
			}
		}
	}
}

// inc counts one increment of counter id and says whether its new count
// needs a decision: one at or past the pending proposal, which is every count
// until the counter draws its first.
func (s *siteCounters) inc(id uint32) bool {
	c := &s.ctrs[id]
	c.n++
	return c.gap.Due(c.n)
}
