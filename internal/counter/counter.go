// Package counter implements continuously tracked distributed counters in
// the continuous distributed monitoring model: k sites receive increments and
// a coordinator maintains an estimate of the global count at all times.
//
// Three trackers are provided:
//
//   - Exact: every increment is forwarded to the coordinator (the strawman
//     behind EXACTMLE, Lemma 5 of the paper).
//   - HYZ: the randomized counter of Huang, Yi and Zhang (PODS 2012), quoted
//     as Lemma 4: unbiased, Var ≤ (εC)², O(√k/ε · log T) messages.
//   - Deterministic: the classical threshold counter with O(k/ε · log T)
//     messages, kept as an ablation baseline.
//
// The package simulates the protocol in-process: site-side and
// coordinator-side state live in one struct and "messages" are tallied in a
// shared Metrics sink. The live TCP implementation in internal/cluster shares
// no code with it: its sites run a coordinator-free one-way variant of HYZ
// (no rounds, no broadcasts; reportProbSqrtK and exactUntil in
// cluster/layout.go, "deviation #1" in the cluster package comment).
//
// Storage comes in two shapes: Bank is a flat struct-of-arrays bank of many
// counters sharing one configuration (the tracker's hot path — see bank.go
// for the layout), and the standalone types above are thin one-cell views
// over a Bank. No product code builds one: they are the per-cell reference
// the bank tests compare against, the subjects of the single-counter
// protocol tests and benchmarks, and the owners of the historical per-cell
// wire formats (state.go).
package counter

import (
	"fmt"
	"math"
	"sync/atomic"

	"distbayes/internal/bn"
)

// Metrics tallies protocol messages. One message is one counter update or
// one synchronization/broadcast unit, matching the accounting used in the
// paper's experiments (Section VI-A).
//
// A Metrics value used as a live sink (passed by pointer to NewExact, NewHYZ,
// NewDeterministic, or filled through DrainTo) is race-safe: it is only ever
// written with atomic adds, so one sink may be shared by counters living in
// different lock stripes of a sharded tracker. Read a live sink with Snapshot;
// plain field access is only safe once all ingestion has completed (or on
// Snapshot copies). When embedding a live sink inside another struct, place
// it at a 64-bit-aligned offset (e.g. as the first field) so the atomic ops
// hold on 32-bit platforms. A Metrics value handed to NewBank is the other
// thing — a private tally written with plain adds (see Bank).
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

// Counter is a continuously tracked distributed counter.
type Counter interface {
	// Inc records one increment observed at the given site.
	Inc(site int)
	// Estimate returns the coordinator's current estimate of the count.
	Estimate() float64
	// Exact returns the true count (evaluation only; a real coordinator
	// would not have access to it for approximate trackers).
	Exact() int64
}

// Exact is the strawman counter: the coordinator is informed of every
// increment, costing one message per increment.
type Exact struct {
	metrics *Metrics
	total   int64
}

// NewExact creates an exact counter that tallies messages into metrics.
func NewExact(metrics *Metrics) *Exact {
	return &Exact{metrics: metrics}
}

// Inc implements Counter.
func (c *Exact) Inc(site int) {
	_ = site
	c.total++
	c.metrics.AddSiteToCoord(1)
}

// Estimate implements Counter; it is always the exact value.
func (c *Exact) Estimate() float64 { return float64(c.total) }

// Exact implements Counter.
func (c *Exact) Exact() int64 { return c.total }

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

// HYZ is the randomized distributed counter of Lemma 4, exposed as a thin
// one-cell view over a flat Bank (see bank.go for the storage layout; the
// protocol logic lives there once, shared with multi-cell banks).
//
// Protocol: while the count is below ExactThreshold the counter is exact.
// Afterwards, execution is divided into rounds. A round opens with a
// synchronization — every site reports its in-round delta (k messages) and
// the coordinator broadcasts the new report probability p (k messages) —
// after which each site, on each local increment, reports its current
// in-round delta with probability p. The coordinator estimates each
// reporting site's delta as lastReport + (1−p)/p (the expectation of the
// trailing geometric gap), and closes the round when its own in-round
// estimate reaches the round-opening count (the count has doubled), giving
// O(log T) rounds.
//
// The delta parameter of the paper's DistCounter(ε, δ) interface is accepted
// for fidelity but not used: as in the paper's experiments a single instance
// is run, the median-of-O(log 1/δ) amplification being analysis only.
type HYZ struct{ oneCell }

// oneCell is what the one-cell views share: a single-cell Bank that tallies
// into the view's private count with plain adds, and the caller's sink that
// Inc drains the count into — so a sink shared across goroutines stays
// race-safe although banks tally without atomics.
type oneCell struct {
	b     *Bank
	sink  *Metrics
	tally Metrics
}

func (v *oneCell) init(kind Kind, k int, eps, delta float64, metrics *Metrics, rng *bn.RNG) (err error) {
	if metrics == nil {
		return fmt.Errorf("counter: counter needs a metrics sink")
	}
	v.sink = metrics
	v.b, err = NewBank(kind, 1, k, eps, delta, &v.tally, rng)
	return err
}

// Inc implements Counter.
func (v *oneCell) Inc(site int) {
	v.b.Inc(0, site)
	v.tally.DrainTo(v.sink)
}

// NewHYZ creates a randomized counter over k sites with error parameter eps,
// tallying messages into metrics and drawing randomness from rng (which may
// be shared across counters; the simulation is single-threaded). The delta
// argument is accepted for interface fidelity with DistCounter(ε, δ) and is
// unused (see type comment).
func NewHYZ(k int, eps, delta float64, metrics *Metrics, rng *bn.RNG) (*HYZ, error) {
	c := new(HYZ)
	if err := c.init(HYZKind, k, eps, delta, metrics, rng); err != nil {
		return nil, err
	}
	return c, nil
}

// Estimate implements Counter.
func (c *HYZ) Estimate() float64 { return c.b.Estimate(0) }

// Exact implements Counter.
func (c *HYZ) Exact() int64 { return c.b.Exact(0) }

// Deterministic is the classical deterministic threshold counter, kept as an
// ablation baseline against HYZ: within a round opened at exact count base,
// each site reports once every q = max(1, ⌈ε·base/k⌉) local increments, so
// the coordinator's estimate is within ε·base ≤ ε·C of the truth, at a cost
// of O(k/ε) messages per round and O(k/ε · log T) messages overall. Like
// HYZ, it is a one-cell view over a flat Bank.
type Deterministic struct{ oneCell }

// NewDeterministic creates a deterministic counter over k sites with error
// parameter eps.
func NewDeterministic(k int, eps float64, metrics *Metrics) (*Deterministic, error) {
	c := new(Deterministic)
	if err := c.init(DeterministicKind, k, eps, 0, metrics, nil); err != nil {
		return nil, err
	}
	return c, nil
}

// Estimate implements Counter.
func (c *Deterministic) Estimate() float64 { return c.b.Estimate(0) }

// Exact implements Counter.
func (c *Deterministic) Exact() int64 { return c.b.Exact(0) }
