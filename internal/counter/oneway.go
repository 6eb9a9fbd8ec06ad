package counter

import "math"

// This file holds the one-way kind: the coordinator-free counter the live
// cluster runs (internal/cluster's site kernel decides with OneWayReportProb
// and OneWayExactUntil, its coordinator estimates with OneWayEstimate). A
// site reports its local count n with probability p = min(1, √k/(ε·k·n)),
// reading k·n as the global count (uniform routing); the coordinator adds,
// per site, the last reported count r and the expected unreported tail
// (1−p)/p at r. There are no rounds and no coordinator → site messages.
//
// A one-way bank keeps per (cell, site) the local count d and the last
// reported count r in sites[cell·k+site], sized at NewBank, and the cell's
// count in word[cell] (never a record index).

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

// OneWayExactUntil returns the largest local count n at which
// OneWayReportProb(k, sqrtK, eps, n) is still 1 — found by evaluating that
// very expression, which never rises with n, around the real-valued solution
// √k/(ε'·k) — and MaxInt64 for an exact counter (or one no run could take out
// of its exact phase). Up to it a report is decided by an integer compare;
// the divide and the coin are paid only beyond it.
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

// incOneWay counts one increment of cell at site and decides the site's
// report as the cluster's site kernel does: always within the exact phase
// (exactThresh holds OneWayExactUntil), beyond it when one rng.Float64 coin
// falls below OneWayReportProb.
func (b *Bank) incOneWay(cell, site int) {
	b.word[cell]++
	st := &b.sites[cell*b.k+site]
	st.d++
	if st.d > b.exactThresh && b.rng.Float64() >= OneWayReportProb(b.k, math.Sqrt(float64(b.k)), b.eps, st.d) {
		return
	}
	st.r = st.d
	b.metrics.SiteToCoord++
}

// estimateOneWay is cell's estimate: the sum of OneWayEstimate over sites
// 0…k−1 from zero, in the order and association of the cluster coordinator's
// estimate walk, so the two agree bit for bit.
func (b *Bank) estimateOneWay(cell int) float64 {
	k, sqrtK := b.k, math.Sqrt(float64(b.k))
	e := 0.0
	for _, st := range b.sites[cell*k : (cell+1)*k] {
		e += OneWayEstimate(k, sqrtK, b.eps, st.r)
	}
	return e
}
