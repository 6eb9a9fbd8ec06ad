package counter

import (
	"math"

	"distbayes/internal/bn"
)

// This file holds the one-way kind: the coordinator-free counter the live
// cluster runs (internal/cluster's site kernel decides with the functions
// below; its coordinator estimates with OneWayEstimate). A site reports its
// local count n with probability p(n) = min(1, √k/(ε·k·n)), reading k·n as
// the global count (uniform routing); the coordinator adds, per site, the
// last reported count r and the expected unreported tail (1−p)/p at r. There
// are no rounds and no coordinator → site messages.
//
// A site decides in two phases of its local count, each report an
// independent event of probability p(n):
//
//   - up to OneWayExactUntil, p is 1: every increment reports, decided by an
//     integer compare;
//   - past it, the gap to the next report is drawn (OneWayGap): thinning
//     (Lewis–Shedler 1979), the skip of Vitter's reservoir sampling (1985).
//     A proposal at rate q = p(from) lands at a geometric gap from count
//     from, and is accepted with probability p(next)/q; p never rises, so q
//     bounds every p in between. An increment between proposals costs one
//     compare.
//
// A one-way bank keeps per (cell, site) the local count d, the last reported
// count r and the pending proposal in oneWay.sites[cell·k+site], sized at
// NewBank, and the cell's count in word[cell] (never a record index).

// OneWayReportProb is the coordinator-free report probability: a site whose
// local count is n estimates the global count as k·n (uniform routing) and
// reports with p = min(1, √k/(ε'·k·n)). Exact counters (ε' = 0, the
// ExactMLE allocation) always report. Callers pass √k alongside k: the
// per-increment site path and the per-cell coordinator reads compute it once.
func OneWayReportProb(k int, sqrtK, eps float64, localCount int64) float64 {
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

// OneWayReports decides a drawn coin u: it is u < OneWayReportProb(k, sqrtK,
// eps, n) — equal for every u in [0, 1) (every value bn.RNG.Float64 draws),
// every finite sqrtK ≥ 1, every k ≥ 1, every n ≥ 0 and every finite eps —
// without the divide outside a narrow band. It forms d = eps·(k·n) exactly as
// OneWayReportProb does and compares u·d with √k:
//
//   - u·d < √k·(1−2⁻⁴⁰): report;
//   - u·d > √k·(1+2⁻⁴⁰): no report;
//   - in between: u < OneWayReportProb(...), with the divide.
//
// Why the two outer answers are exact: u·d, the band edge √k·(1∓2⁻⁴⁰) and
// OneWayReportProb's p = √k/d are three roundings of relative error at most
// 2⁻⁵³ each (with d the same float on both sides). So below the band the
// exact u·d is under √k·(1−2⁻⁴⁰)(1+2⁻⁵³)/(1−2⁻⁵³) < √k·(1−2⁻⁵³), which puts u
// under (√k/d)(1−2⁻⁵³) ≤ p; above it, u is over (√k/d)(1+2⁻⁵³) ≥ p. The
// clamp p ≤ 1 changes neither answer, since u < 1. d ≤ 0 (eps ≤ 0, or a
// count of 0) falls below the band, as OneWayReportProb's p = 1 says;
// a u·d too small to be a normal float is below it too, because √k ≥ 1; and a
// NaN (0·∞) falls through both compares to the divide.
func OneWayReports(u float64, k int, sqrtK, eps float64, n int64) bool {
	ud := u * (eps * (float64(k) * float64(n)))
	if ud < sqrtK*(1-0x1p-40) {
		return true
	}
	if ud > sqrtK*(1+0x1p-40) {
		return false
	}
	return u < OneWayReportProb(k, sqrtK, eps, n)
}

// OneWayExactUntil returns the largest local count n at which
// OneWayReportProb(k, sqrtK, eps, n) is still 1 — found by evaluating that
// very expression, which never rises with n, around the real-valued solution
// √k/(ε'·k) — and MaxInt64 for an exact counter (or one no run could take out
// of its exact phase). Up to it a report is decided by an integer compare;
// the gap draws are paid only beyond it.
func OneWayExactUntil(k int, sqrtK, eps float64) int64 {
	if eps <= 0 || sqrtK/(eps*float64(k)) >= 1<<62 {
		return math.MaxInt64
	}
	n := int64(sqrtK / (eps * float64(k)))
	for OneWayReportProb(k, sqrtK, eps, n+1) >= 1 {
		n++
	}
	for n > 0 && OneWayReportProb(k, sqrtK, eps, n) < 1 {
		n--
	}
	return n
}

// oneWayNext draws a proposal from local count from on: the rate q =
// OneWayReportProb(k, sqrtK, eps, from) and the count next = from +
// ⌊ln(1−u)/ln(1−q)⌋ of the first success of one Bernoulli(q) trial per count
// from from on. u is a coin in [0, 1); 1−u, which is uniform too, lies in
// (0, 1], so the log is finite.
// A gap that would carry next past MaxInt64 saturates there: no count gets
// that far (2⁶³ increments), and were one to, a gap redrawn from that count
// would be distributed as the rest of this one, a geometric gap being
// memoryless.
func oneWayNext(u float64, k int, sqrtK, eps float64, from int64) (next int64, q float64) {
	q = OneWayReportProb(k, sqrtK, eps, from)
	g := math.Log(1-u) / math.Log1p(-q)
	if g < 1<<62 && int64(g) <= math.MaxInt64-from {
		return from + int64(g), q
	}
	return math.MaxInt64, q
}

// OneWayGap is a one-way counter's pending proposal past OneWayExactUntil:
// the count Next it lands on and the rate Q it was drawn at. The zero value
// is a counter that has drawn none. A caller stores the local count beside
// it and increments with one compare, Due, deciding only the counts it
// passes.
type OneWayGap struct {
	Next int64
	Q    float64
}

// Due says whether local count n needs a decision: every count does until
// the counter draws its first proposal (within the exact phase Next stays
// 0), and past that only the proposal's own count.
func (g *OneWayGap) Due(n int64) bool { return n >= g.Next }

// Decide decides local count n > OneWayExactUntil(k, sqrtK, eps) of a
// counter whose previous counts were all decided, n being g.Next or (before
// the first proposal) the first count past the exact phase. The first call
// draws the first proposal from n; a proposal that lands on n is accepted
// when OneWayReports(u·Q, k, sqrtK, eps, n) — with probability p(n)/Q,
// without a divide outside that function's narrow band — and the next is
// drawn from n+1. So each count past the exact phase reports with
// probability p(n), independently, as the per-increment coin would, for two
// draws of rng per proposal (and one more before the first) instead of one
// per increment.
func (g *OneWayGap) Decide(rng *bn.RNG, k int, sqrtK, eps float64, n int64) bool {
	if g.Next < n {
		g.Next, g.Q = oneWayNext(rng.Float64(), k, sqrtK, eps, n)
		if g.Next > n {
			return false
		}
	}
	report := OneWayReports(rng.Float64()*g.Q, k, sqrtK, eps, n)
	g.Next, g.Q = oneWayNext(rng.Float64(), k, sqrtK, eps, n+1)
	return report
}

// OneWayEstimate is the coordinator's estimate of one site's local count
// from its last report r: r plus the trailing-gap correction, the expected
// number of unreported local increments (1−p)/p at the report probability in
// force at count r (none before the first report). A counter's estimate is
// the sum over sites 0…k−1, from zero, in that order.
func OneWayEstimate(k int, sqrtK, eps float64, r int64) float64 {
	if r <= 0 {
		return float64(r)
	}
	p := OneWayReportProb(k, sqrtK, eps, r)
	return float64(r) + (1-p)/p
}

// oneWayBank is a one-way bank's own state: the per-(cell, site) records at
// sites[cell·k+site] and the constants an increment reads.
type oneWayBank struct {
	sites []oneWaySite
	sqrtK float64
}

// oneWaySite is one site's state of a one-way cell: its local count d, the
// count r it last reported, and its pending proposal.
type oneWaySite struct {
	d, r int64
	gap  OneWayGap
}

// incOneWay counts one increment of cell at site and decides the site's
// report as the cluster's site kernel does: always within the exact phase
// (exactThresh holds OneWayExactUntil), and past it by OneWayGap.Decide at
// the counts OneWayGap.Due lets through.
func (b *Bank) incOneWay(cell, site int) {
	b.word[cell]++
	ow := b.oneWay
	st := &ow.sites[cell*b.k+site]
	n := st.d + 1
	st.d = n
	if !st.gap.Due(n) || n > b.exactThresh && !st.gap.Decide(b.rng, b.k, ow.sqrtK, b.eps, n) {
		return
	}
	st.r = n
	b.metrics.SiteToCoord++
}

// estimateOneWay is cell's estimate: the sum of OneWayEstimate over sites
// 0…k−1 from zero, in the order and association of the cluster coordinator's
// estimate walk, so the two agree bit for bit.
func (b *Bank) estimateOneWay(cell int) float64 {
	k, ow := b.k, b.oneWay
	e := 0.0
	for _, st := range ow.sites[cell*k : (cell+1)*k] {
		e += OneWayEstimate(k, ow.sqrtK, b.eps, st.r)
	}
	return e
}
