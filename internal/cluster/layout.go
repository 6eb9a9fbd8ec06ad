package cluster

import (
	"math"

	"distbayes/internal/bn"
	"distbayes/internal/core"
)

// Layout assigns a dense global id to every distributed counter of a
// network: for each variable, first its J_i·K_i pair counters (in CPT order,
// pidx·J_i + value), then its K_i parent counters. Sites and the
// coordinator compute the same layout independently from the regenerated
// network, so counter ids never travel in full.
type Layout struct {
	net     *bn.Network
	pairOff []uint32
	parOff  []uint32
	total   uint32
	// eps[id] is the counter's error parameter under the chosen allocation.
	eps []float64
	// sections are the contiguous equal-eps id ranges (per variable: its
	// pair block, then its parent block) in ascending id order, covering
	// [0, total) exactly.
	sections []Section
}

// Section is one contiguous counter-id range sharing a single error
// parameter. Bulk walks over the whole counter space — the coordinator's
// snapshot rebuild — iterate sections so the per-id eps lookup hoists out
// of the inner loop (the coordinator-side sibling of
// counter.Bank.EstimateRange).
type Section struct {
	Lo, Hi uint32
	Eps    float64
}

// NewLayout computes the layout and per-counter error parameters for the
// given strategy and budget.
func NewLayout(net *bn.Network, strategy core.Strategy, eps float64) (*Layout, error) {
	alloc, err := core.Allocate(net, strategy, eps)
	if err != nil {
		return nil, err
	}
	l := &Layout{
		net:     net,
		pairOff: make([]uint32, net.Len()),
		parOff:  make([]uint32, net.Len()),
	}
	off := uint32(0)
	for i := 0; i < net.Len(); i++ {
		l.pairOff[i] = off
		off += uint32(net.Card(i) * net.ParentCard(i))
		l.parOff[i] = off
		off += uint32(net.ParentCard(i))
	}
	l.total = off
	l.eps = make([]float64, off)
	l.sections = make([]Section, 0, 2*net.Len())
	for i := 0; i < net.Len(); i++ {
		for c := 0; c < net.Card(i)*net.ParentCard(i); c++ {
			l.eps[l.pairOff[i]+uint32(c)] = alloc.EpsA[i]
		}
		for c := 0; c < net.ParentCard(i); c++ {
			l.eps[l.parOff[i]+uint32(c)] = alloc.EpsB[i]
		}
		l.sections = append(l.sections,
			Section{Lo: l.pairOff[i], Hi: l.parOff[i], Eps: alloc.EpsA[i]},
			Section{Lo: l.parOff[i], Hi: l.parOff[i] + uint32(net.ParentCard(i)), Eps: alloc.EpsB[i]})
	}
	return l, nil
}

// Sections returns the contiguous equal-eps ranges covering
// [0, NumCounters()) in ascending id order. Read-only.
func (l *Layout) Sections() []Section { return l.sections }

// NumCounters returns the total number of counters.
func (l *Layout) NumCounters() uint32 { return l.total }

// PairID returns the id of A_i(value, pidx).
func (l *Layout) PairID(i, value, pidx int) uint32 {
	return l.pairOff[i] + uint32(pidx*l.net.Card(i)+value)
}

// ParID returns the id of A_i(pidx).
func (l *Layout) ParID(i, pidx int) uint32 {
	return l.parOff[i] + uint32(pidx)
}

// Eps returns the error parameter of a counter.
func (l *Layout) Eps(id uint32) float64 { return l.eps[id] }

// reportProbSqrtK is the coordinator-free report probability: a site whose
// local count is n estimates the global count as k·n (uniform routing) and
// reports with p = min(1, √k/(ε'·k·n)). Exact counters (ε' = 0, the
// ExactMLE allocation) always report. Callers pass √k alongside k: the
// per-increment site path and the per-cell coordinator reads compute it once.
func reportProbSqrtK(k int, sqrtK, eps float64, localCount int64) float64 {
	if eps <= 0 {
		return 1
	}
	global := float64(k) * float64(localCount)
	if global <= 0 {
		return 1
	}
	p := sqrtK / (eps * global)
	if p > 1 {
		return 1
	}
	return p
}

// adjustmentSqrtK is the coordinator's trailing-gap correction for a site
// whose last reported local count is r: the expected number of unreported
// local increments is (1-p)/p at the report probability in force at count r.
func adjustmentSqrtK(k int, sqrtK, eps float64, r int64) float64 {
	if r <= 0 {
		return 0
	}
	p := reportProbSqrtK(k, sqrtK, eps, r)
	return (1 - p) / p
}

// siteCounters is the site half of the counter protocol as one self-contained
// type: every local count in a dense slice indexed by layout counter id, the
// latest decided report per counter with the window of counters decided since
// the last drain, and per-variable report constants.
//
// Bit-identity contract: event makes the decisions of the historical per-id
// loop (sitekernel_test.go keeps it as the oracle) — variables ascending,
// pair counter before parent counter, a report whenever reportProbSqrtK is 1
// and otherwise one rng.Float64 coin against it — so the same counters report
// at the same counts after the same draws in the same order.
type siteCounters struct {
	k      int
	sqrtK  float64
	counts []int64
	// reported.vals[id] is the latest local count the site decided to report
	// for counter id (0 = never) — the crux of crash safety, see siteRun — and
	// its dirty set is the pending window. Ids suffice there: counts are
	// monotone, so the latest decision subsumes the window's earlier ones.
	reported dirtyVec
	vars     []siteVar
}

// siteVar holds one variable's id offsets and, for its pair ([0]) and parent
// ([1]) counters, the error parameter and exactUntil: the largest local count
// at which reportProbSqrtK is still 1. Up to it a report is decided by an
// integer compare; the divide and the coin are paid only beyond it.
type siteVar struct {
	pairOff, parOff, card uint32
	eps                   [2]float64
	exactUntil            [2]int64
}

func newSiteCounters(layout *Layout, k int) *siteCounters {
	s := &siteCounters{
		k:        k,
		sqrtK:    math.Sqrt(float64(k)),
		counts:   make([]int64, layout.NumCounters()),
		reported: newDirtyVec(layout.NumCounters()),
		vars:     make([]siteVar, layout.net.Len()),
	}
	for i := range s.vars {
		v := &s.vars[i]
		v.pairOff, v.parOff, v.card = layout.pairOff[i], layout.parOff[i], uint32(layout.net.Card(i))
		for j := range v.eps {
			v.eps[j] = layout.sections[2*i+j].Eps
			v.exactUntil[j] = exactUntil(k, s.sqrtK, v.eps[j])
		}
	}
	return s
}

// exactUntil returns the largest local count n at which reportProbSqrtK(k,
// sqrtK, eps, n) is still 1 — found by evaluating that very expression, which
// never rises with n, around the real-valued solution √k/(ε'·k) — and
// MaxInt64 for an exact counter (or one no run could take out of its exact
// phase).
func exactUntil(k int, sqrtK, eps float64) int64 {
	if eps <= 0 || sqrtK/(eps*float64(k)) >= 1<<62 {
		return math.MaxInt64
	}
	n := int64(sqrtK / (eps * float64(k)))
	for reportProbSqrtK(k, sqrtK, eps, n+1) >= 1 {
		n++
	}
	for n > 0 && reportProbSqrtK(k, sqrtK, eps, n) < 1 {
		n--
	}
	return n
}

// event counts one stream event — x with its parent-configuration indices
// over the layout's network — on the 2n counters it touches and decides each
// one's report.
func (s *siteCounters) event(x, pidx []int, rng *bn.RNG) {
	for i := range s.vars {
		v := &s.vars[i]
		p := uint32(pidx[i])
		s.count(v.pairOff+p*v.card+uint32(x[i]), v.eps[0], v.exactUntil[0], rng)
		s.count(v.parOff+p, v.eps[1], v.exactUntil[1], rng)
	}
}

func (s *siteCounters) count(id uint32, eps float64, exactUntil int64, rng *bn.RNG) {
	n := s.counts[id] + 1
	s.counts[id] = n
	if n > exactUntil && rng.Float64() >= reportProbSqrtK(s.k, s.sqrtK, eps, n) {
		return
	}
	s.reported.set(id, n)
}
