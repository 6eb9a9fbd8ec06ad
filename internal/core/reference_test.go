package core_test

import (
	"math"

	"distbayes/internal/bn"
	"distbayes/internal/core"
)

// This file is the reference TestMatrix holds every tracker and cluster mode
// to: the paper's counters written out plainly, one counter at a time, in one
// goroutine, one message per report. It has no banks, frames, batching or
// counter layout, and shares no code with internal/counter, the tracker or
// the cluster; from core it takes only Allocate's per-variable ε′. It has
// three kinds of counter:
//
//   - exact (ε′ = 0, EXACTMLE): the count itself, every increment a
//     message (Lemma 5);
//   - HYZ (Lemma 4, the tracker's counter): exact while the count C is below
//     √k/ε′; then rounds, each opened by a sync — every site reports its
//     delta and the coordinator broadcasts p = min(1, √k/(ε′·C)), k messages
//     each way — in which a site reports its in-round delta on each increment
//     with probability p, and which ends when the coordinator's in-round
//     estimate (each reporter's last delta plus (1−p)/p) reaches the count
//     the round opened at, so the count has doubled;
//   - one-way (the live cluster's counter): a site with local count n reports
//     it with probability min(1, √k/(ε′·k·n)), a coin per increment, and the
//     coordinator adds each site's last report r and (1−p)/p at r.

// refKind is the randomized counter a reference runs for ε′ > 0.
type refKind int

const (
	refHYZ refKind = iota
	refOneWay
)

// refCell is one counter: its exact count, and per site the count d it has
// seen (its in-round delta under HYZ, its local count one-way) and the value
// r it last reported.
type refCell struct {
	eps   float64
	count int64
	d, r  []int64
	// HYZ rounds: sampling once the first round opened, at count base with
	// report probability p; reporters sites have reported in it, sum is the
	// sum of their reports.
	sampling  bool
	base      int64
	p         float64
	reporters int
	sum       int64
}

// reference tracks every counter of a network: cells[i] is variable i's row,
// laid out as a Snapshot row is — the J_i·K_i pair counters at pidx·J_i+v,
// then the K_i parent counters.
type reference struct {
	net   *bn.Network
	kind  refKind
	k     int
	cells [][]refCell
	rng   *bn.RNG
	msgs  int64
}

func newReference(net *bn.Network, kind refKind, strategy core.Strategy, eps float64, k int, seed uint64) (*reference, error) {
	alloc, err := core.Allocate(net, strategy, eps)
	if err != nil {
		return nil, err
	}
	ref := &reference{net: net, kind: kind, k: k, cells: make([][]refCell, net.Len()), rng: bn.NewRNG(seed)}
	for i := range ref.cells {
		pairs := net.Card(i) * net.ParentCard(i)
		ref.cells[i] = make([]refCell, pairs+net.ParentCard(i))
		for c := range ref.cells[i] {
			e := alloc.EpsA[i]
			if c >= pairs {
				e = alloc.EpsB[i]
			}
			ref.cells[i][c] = refCell{eps: e, d: make([]int64, k), r: make([]int64, k)}
		}
	}
	return ref, nil
}

// event counts one event x at site: one pair and one parent counter per
// variable.
func (ref *reference) event(site int, x []int) {
	for i, row := range ref.cells {
		j, pidx := ref.net.Card(i), ref.net.ParentIndex(i, x)
		ref.inc(&row[pidx*j+x[i]], site)
		ref.inc(&row[j*ref.net.ParentCard(i)+pidx], site)
	}
}

func (ref *reference) inc(c *refCell, site int) {
	c.count++
	switch {
	case c.eps == 0:
		ref.msgs++
	case ref.kind == refOneWay:
		c.d[site]++
		if ref.rng.Float64() < ref.oneWayProb(c, c.d[site]) {
			c.r[site] = c.d[site]
			ref.msgs++
		}
	case !c.sampling:
		ref.msgs++
		if float64(c.count) >= math.Sqrt(float64(ref.k))/c.eps {
			ref.openRound(c)
		}
	default:
		c.d[site]++
		if ref.rng.Float64() < c.p {
			ref.msgs++
			if c.r[site] == 0 {
				c.reporters++
			}
			c.sum += c.d[site] - c.r[site]
			c.r[site] = c.d[site]
			if ref.inRound(c) >= float64(c.base) {
				ref.openRound(c)
			}
		}
	}
}

// openRound is a HYZ sync: k reports and k broadcasts, and a new round at
// the exact count.
func (ref *reference) openRound(c *refCell) {
	ref.msgs += 2 * int64(ref.k)
	c.sampling, c.base = true, c.count
	c.p = min(1, math.Sqrt(float64(ref.k))/(c.eps*float64(c.base)))
	clear(c.d)
	clear(c.r)
	c.reporters, c.sum = 0, 0
}

func (ref *reference) inRound(c *refCell) float64 {
	return float64(c.sum) + float64(c.reporters)*(1-c.p)/c.p
}

func (ref *reference) oneWayProb(c *refCell, n int64) float64 {
	return min(1, math.Sqrt(float64(ref.k))/(c.eps*float64(ref.k)*float64(n)))
}

// estimate is the coordinator's estimate of c.
func (ref *reference) estimate(c *refCell) float64 {
	switch {
	case c.eps == 0:
		return float64(c.count)
	case ref.kind == refOneWay:
		e := 0.0
		for _, r := range c.r {
			if r > 0 {
				p := ref.oneWayProb(c, r)
				e += float64(r) + (1-p)/p
			}
		}
		return e
	case c.sampling:
		return float64(c.base) + ref.inRound(c)
	}
	return float64(c.count)
}

// past says whether c has left its exact phase: under HYZ its first round
// opened, one-way some site's report probability fell below 1.
func (ref *reference) past(c *refCell) bool {
	if c.eps == 0 {
		return false
	}
	if ref.kind == refHYZ {
		return c.sampling
	}
	for _, n := range c.d {
		if ref.oneWayProb(c, n) < 1 {
			return true
		}
	}
	return false
}
