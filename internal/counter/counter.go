// Package counter implements continuously tracked distributed counters in
// the continuous distributed monitoring model: k sites receive increments and
// a coordinator maintains an estimate of the global count at all times.
//
// Three protocols are provided, as the three kinds of a Bank:
//
//   - ExactKind: every increment is forwarded to the coordinator (the
//     strawman behind EXACTMLE). Guarantee: the estimate is the count
//     (Lemma 5 of the paper), at one message per increment.
//   - HYZKind: the randomized counter of Huang, Yi and Zhang (PODS 2012),
//     the paper's DistCounter. Guarantee (Lemma 4): unbiased,
//     Var ≤ (εC)², O(√k/ε · log T) messages. The core.Tracker runs it.
//   - OneWayKind: the coordinator-free variant the live TCP cluster
//     (internal/cluster) runs: no rounds, and no coordinator → site
//     messages at all. No theorem of the paper covers it. Each site reads
//     k times its local count as the global count, which assumes events are
//     routed to sites uniformly ("deviation #1" in the cluster package
//     comment): a site that sees more than its 1/k share of the stream
//     overestimates the global count and reports less often than an ε
//     bound would need (internal/cluster's TestSkewedRoutingImprecision
//     measures by how much). See oneway.go.
//
// What they cost, at equal k and stream (alarm, NONUNIFORM, ε = 0.1,
// 2¹⁷ events over stream.NewSiteTrainings, sites taking turns; measured and
// its ordering asserted by TestOneWayCostsFewerMessagesThanHYZ in
// internal/core): at k = 2, HYZ sends 20.70 messages per event and the
// one-way kind 16.28; at k = 30, 43.50 and 35.80. Over 2²⁰ events the
// figures are 4.97 and 3.75 at k = 2, and 13.06 and 10.01 at k = 30. The
// exact kind sends 2n per event on an n-variable network (74 on alarm).
//
// HYZ protocol: while the count is below ExactThreshold the counter is exact.
// Afterwards, execution is divided into rounds. A round opens with a
// synchronization — every site reports its in-round delta (k messages) and
// the coordinator broadcasts the new report probability p (k messages) —
// after which each site, on each local increment, reports its current
// in-round delta with probability p. The coordinator estimates each
// reporting site's delta as lastReport + (1−p)/p (the expectation of the
// trailing geometric gap), and closes the round when its own in-round
// estimate reaches the round-opening count (the count has doubled), giving
// O(log T) rounds. The delta parameter of the paper's DistCounter(ε, δ)
// interface is accepted for fidelity but not used: as in the paper's
// experiments a single instance is run, the median-of-O(log 1/δ)
// amplification being analysis only.
//
// The package simulates every protocol in-process: site-side and
// coordinator-side state live in one struct and "messages" are tallied in a
// Metrics value. The one-way kind's decision and estimate are also the live
// cluster's: its sites decide with OneWayExactUntil and OneWayReports and
// its coordinator estimates with OneWayEstimate, so a tracker running the
// kind reproduces a cluster run bit for bit.
//
// Bank is a flat struct-of-arrays bank of many counters sharing one
// configuration (the tracker's hot path — see bank.go for the layout); a
// single counter is a one-cell Bank.
package counter

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Metrics tallies protocol messages. One message is one counter update or
// one synchronization/broadcast unit, matching the accounting used in the
// paper's experiments (Section VI-A).
//
// A Metrics value is used in one of two ways. A private tally, handed to
// NewBank, is written with plain adds by whoever serializes access to its
// banks (see Bank). A live sink, filled through DrainTo and the atomic adds,
// is race-safe: it is only ever written atomically, so one sink may collect
// the tallies of banks living in different lock stripes of a sharded tracker.
// Read a live sink with Snapshot; plain field access is only safe once all
// ingestion has completed (or on Snapshot copies). When embedding a live sink
// inside another struct, place it at a 64-bit-aligned offset (e.g. as the
// first field) so the atomic ops hold on 32-bit platforms.
type Metrics struct {
	// SiteToCoord counts site → coordinator messages (counter updates and
	// round-synchronization reports).
	SiteToCoord int64
	// CoordToSite counts coordinator → site messages (round-parameter
	// broadcasts).
	CoordToSite int64
}

// Total returns all messages in both directions.
func (m Metrics) Total() int64 { return m.SiteToCoord + m.CoordToSite }

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.SiteToCoord += other.SiteToCoord
	m.CoordToSite += other.CoordToSite
}

// AddSiteToCoord atomically tallies n site → coordinator messages.
func (m *Metrics) AddSiteToCoord(n int64) { atomic.AddInt64(&m.SiteToCoord, n) }

// AddCoordToSite atomically tallies n coordinator → site messages.
func (m *Metrics) AddCoordToSite(n int64) { atomic.AddInt64(&m.CoordToSite, n) }

// DrainTo publishes a private tally: it atomically adds m's counts to the
// live sink and zeroes m. Only m's owner may call it (m itself is read and
// written with plain accesses).
func (m *Metrics) DrainTo(sink *Metrics) {
	if m.SiteToCoord != 0 {
		sink.AddSiteToCoord(m.SiteToCoord)
		m.SiteToCoord = 0
	}
	if m.CoordToSite != 0 {
		sink.AddCoordToSite(m.CoordToSite)
		m.CoordToSite = 0
	}
}

// Snapshot returns a race-free copy of the tallies, safe to call while other
// goroutines are still incrementing counters that write to m. The two fields
// are loaded independently, so a snapshot taken mid-update (e.g. between a
// round's report and broadcast tallies) need not satisfy cross-field
// invariants; quiesce ingestion for an exact pair.
func (m *Metrics) Snapshot() Metrics {
	return Metrics{
		SiteToCoord: atomic.LoadInt64(&m.SiteToCoord),
		CoordToSite: atomic.LoadInt64(&m.CoordToSite),
	}
}

// Store atomically overwrites the tallies with those of other.
func (m *Metrics) Store(other Metrics) {
	atomic.StoreInt64(&m.SiteToCoord, other.SiteToCoord)
	atomic.StoreInt64(&m.CoordToSite, other.CoordToSite)
}

// ExactThreshold returns the count below which the randomized counter runs in
// exact mode: while C < √k/ε the report probability p = min(1, √k/(εC)) is 1,
// so every increment is forwarded and the coordinator is exact.
func ExactThreshold(k int, eps float64) int64 {
	t := math.Ceil(math.Sqrt(float64(k)) / eps)
	if t < 1 {
		return 1
	}
	return int64(t)
}

// ReportProb returns the per-increment report probability used during a round
// that started with exact global count base: p = min(1, √k/(ε·base)).
func ReportProb(k int, eps float64, base int64) float64 {
	if base <= 0 {
		return 1
	}
	p := math.Sqrt(float64(k)) / (eps * float64(base))
	if p > 1 {
		return 1
	}
	return p
}

func validate(k int, eps float64) error {
	if k < 1 {
		return fmt.Errorf("counter: need at least one site, got %d", k)
	}
	if !(eps > 0) || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return fmt.Errorf("counter: invalid epsilon %v", eps)
	}
	return nil
}
