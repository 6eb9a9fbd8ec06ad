package counter

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"distbayes/internal/bn"
)

// newCell builds a one-cell bank of the given kind tallying into m: a
// single distributed counter.
func newCell(t testing.TB, kind Kind, k int, eps float64, m *Metrics, rng *bn.RNG) *Bank {
	t.Helper()
	b, err := NewBank(kind, 1, k, eps, 0.25, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleHelpers(t *testing.T) {
	if th := ExactThreshold(16, 0.1); th != 40 {
		t.Errorf("ExactThreshold(16, 0.1) = %d, want 40", th)
	}
	if th := ExactThreshold(1, 0.5); th != 2 {
		t.Errorf("ExactThreshold(1, 0.5) = %d, want 2", th)
	}
	if p := ReportProb(16, 0.1, 0); p != 1 {
		t.Errorf("ReportProb(base=0) = %v, want 1", p)
	}
	if p := ReportProb(16, 0.1, 10); p != 1 {
		t.Errorf("ReportProb below threshold = %v, want 1", p)
	}
	want := 4.0 / (0.1 * 4000)
	if p := ReportProb(16, 0.1, 4000); math.Abs(p-want) > 1e-12 {
		t.Errorf("ReportProb = %v, want %v", p, want)
	}
}

func TestHYZExactWhileSmall(t *testing.T) {
	var m Metrics
	c := newCell(t, HYZKind, 9, 0.5, &m, bn.NewRNG(2))
	th := ExactThreshold(9, 0.5) // 6
	for i := int64(0); i < th-1; i++ {
		c.Inc(0, int(i%9))
		if c.Estimate(0) != float64(c.Exact(0)) {
			t.Fatalf("estimate %v != exact %d during exact mode", c.Estimate(0), c.Exact(0))
		}
	}
	if m.CoordToSite != 0 {
		t.Errorf("broadcasts before threshold: %d", m.CoordToSite)
	}
}

func TestHYZEstimateAccuracy(t *testing.T) {
	// Drive a single counter to 200k increments over 25 sites and check the
	// relative error along the way stays well within a few epsilon.
	const k, eps, n = 25, 0.05, 200000
	var m Metrics
	rng := bn.NewRNG(3)
	c := newCell(t, HYZKind, k, eps, &m, rng)
	worst := 0.0
	for i := 0; i < n; i++ {
		c.Inc(0, rng.Intn(k))
		if i%1000 == 999 {
			rel := math.Abs(c.Estimate(0)-float64(c.Exact(0))) / float64(c.Exact(0))
			if rel > worst {
				worst = rel
			}
		}
	}
	// Chebyshev at Var=(εC)² gives loose tails; 4ε is a generous bound for
	// the worst of 200 snapshots.
	if worst > 4*eps {
		t.Errorf("worst relative error %v > %v", worst, 4*eps)
	}
	if m.SiteToCoord >= n {
		t.Errorf("sampling counter sent %d messages for %d increments; no saving", m.SiteToCoord, n)
	}
}

func TestHYZUnbiasedAndVarianceBound(t *testing.T) {
	// Many independent replications of the same arrival sequence; the final
	// estimate should be nearly unbiased with std dev ≤ eps*C.
	const k, eps = 16, 0.1
	const C = 20000
	const reps = 300
	sum, sumSq := 0.0, 0.0
	for rep := 0; rep < reps; rep++ {
		var m Metrics
		c := newCell(t, HYZKind, k, eps, &m, bn.NewRNG(uint64(1000+rep)))
		for i := 0; i < C; i++ {
			c.Inc(0, i%k)
		}
		e := c.Estimate(0)
		sum += e
		sumSq += e * e
	}
	mean := sum / reps
	variance := sumSq/reps - mean*mean
	if math.Abs(mean-C)/C > 0.02 {
		t.Errorf("mean estimate %v deviates from true count %d by more than 2%%", mean, C)
	}
	bound := (eps * C) * (eps * C)
	if variance > 1.5*bound {
		t.Errorf("empirical variance %v exceeds 1.5*(εC)² = %v", variance, 1.5*bound)
	}
}

func TestHYZMessageGrowthLogarithmic(t *testing.T) {
	// Messages after 10x more increments should grow far less than 10x once
	// sampling has kicked in (O(√k/ε · log T) vs O(T)).
	const k, eps = 16, 0.1
	run := func(n int) int64 {
		var m Metrics
		c := newCell(t, HYZKind, k, eps, &m, bn.NewRNG(77))
		for i := 0; i < n; i++ {
			c.Inc(0, i%k)
		}
		return m.Total()
	}
	m1 := run(50000)
	m2 := run(500000)
	if ratio := float64(m2) / float64(m1); ratio > 3 {
		t.Errorf("message ratio for 10x stream = %v, want < 3 (logarithmic growth)", ratio)
	}
	if m2 >= 500000 {
		t.Errorf("sampling counter used %d messages for 500000 increments", m2)
	}
}

func TestHYZSingleSite(t *testing.T) {
	var m Metrics
	c := newCell(t, HYZKind, 1, 0.1, &m, bn.NewRNG(5))
	const n = 100000
	for i := 0; i < n; i++ {
		c.Inc(0, 0)
	}
	rel := math.Abs(c.Estimate(0)-n) / n
	if rel > 0.3 {
		t.Errorf("single-site relative error %v", rel)
	}
	if m.Total() >= n {
		t.Errorf("no message saving on single site: %d", m.Total())
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{SiteToCoord: 3, CoordToSite: 2}
	b := Metrics{SiteToCoord: 5, CoordToSite: 7}
	a.Add(b)
	if a.SiteToCoord != 8 || a.CoordToSite != 9 || a.Total() != 17 {
		t.Errorf("Add result %+v", a)
	}
}

func TestHYZSmallEpsilonStaysExactLonger(t *testing.T) {
	// With a very small epsilon (as allocated to rare counters by the
	// tracking algorithms), the counter should remain exact over a short
	// stream: identical estimate, one message per increment.
	var m Metrics
	c := newCell(t, HYZKind, 30, 0.001, &m, bn.NewRNG(8))
	n := int64(1000) // far below √30/0.001 ≈ 5477
	for i := int64(0); i < n; i++ {
		c.Inc(0, int(i%30))
	}
	if c.Estimate(0) != float64(n) {
		t.Errorf("estimate %v, want exact %d", c.Estimate(0), n)
	}
	if m.SiteToCoord != n {
		t.Errorf("messages %d, want %d (exact mode)", m.SiteToCoord, n)
	}
}

// incSpec is a randomly generated increment workload for the property-based
// suite: k sites, a stream length, an error parameter and a seed that fixes
// both the site choices and the randomized counter's coin flips.
type incSpec struct {
	K    int
	N    int
	Eps  float64
	Seed uint64
}

// normalize maps arbitrary generated values into a valid, bounded workload.
func (s incSpec) normalize() incSpec {
	s.K = 1 + abs(s.K)%12
	s.N = 500 + abs(s.N)%20000
	epsChoices := []float64{0.05, 0.1, 0.2, 0.3}
	s.Eps = epsChoices[int(math.Abs(s.Eps)*1e6)%len(epsChoices)]
	return s
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// quickCfg makes testing/quick deterministic: generated workloads depend
// only on this fixed source, so a passing run stays passing.
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(20260729))}
}

// TestQuickExactMatchesReferenceSum drives both counter kinds with the same
// random increment sequence and checks every Exact() against a plain
// reference sum — the paper's invariant that approximation never loses
// increments, only delays their reporting.
func TestQuickExactMatchesReferenceSum(t *testing.T) {
	f := func(raw incSpec) bool {
		s := raw.normalize()
		var m Metrics
		h := newCell(t, HYZKind, s.K, s.Eps, &m, bn.NewRNG(s.Seed))
		e := newCell(t, ExactKind, s.K, 0, &m, nil)
		sites := bn.NewRNG(s.Seed ^ 0xabcdef)
		for i := 0; i < s.N; i++ {
			site := sites.Intn(s.K)
			h.Inc(0, site)
			e.Inc(0, site)
		}
		ref := int64(s.N)
		return h.Exact(0) == ref && e.Exact(0) == ref && e.Estimate(0) == float64(ref)
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Error(err)
	}
}

// TestQuickHYZWithinChebyshevBound checks the randomized counter's estimate
// on random workloads. The guarantee is probabilistic (Var ≤ (εC)², Lemma
// 4), so the assertion uses a 6·εC Chebyshev envelope plus a small additive
// slack for the low-count regime; with the fixed quick source the workloads
// are deterministic, making the test reproducible.
func TestQuickHYZWithinChebyshevBound(t *testing.T) {
	f := func(raw incSpec) bool {
		s := raw.normalize()
		var m Metrics
		c := newCell(t, HYZKind, s.K, s.Eps, &m, bn.NewRNG(s.Seed))
		sites := bn.NewRNG(s.Seed ^ 0x5ca1ab1e)
		for i := 0; i < s.N; i++ {
			c.Inc(0, sites.Intn(s.K))
		}
		C := float64(c.Exact(0))
		return math.Abs(c.Estimate(0)-C) <= 6*s.Eps*C+float64(2*s.K)
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Error(err)
	}
}

// TestQuickMessageSavings: once past the exact phase, the randomized counter
// must use fewer messages than the exact kind, which forwards every
// increment, on the same workload (the point of the paper).
func TestQuickMessageSavings(t *testing.T) {
	f := func(raw incSpec) bool {
		s := raw.normalize()
		s.N = 50000 + s.N // long enough that sampling always kicks in
		var mh, me Metrics
		h := newCell(t, HYZKind, s.K, s.Eps, &mh, bn.NewRNG(s.Seed))
		e := newCell(t, ExactKind, s.K, 0, &me, nil)
		sites := bn.NewRNG(s.Seed ^ 0xfeed)
		for i := 0; i < s.N; i++ {
			site := sites.Intn(s.K)
			h.Inc(0, site)
			e.Inc(0, site)
		}
		return me.Total() == int64(s.N) && mh.Total() < me.Total()
	}
	if err := quick.Check(f, quickCfg(10)); err != nil {
		t.Error(err)
	}
}

// TestMetricsSinkConcurrent drives banks that live in different lock
// stripes, each tallying privately and publishing into one shared sink with
// DrainTo — what the sharded tracker's stripes do — from multiple
// goroutines, and checks no tally is lost. Run under -race this also proves
// the sink's atomicity.
func TestMetricsSinkConcurrent(t *testing.T) {
	const workers, perWorker = 8, 5000
	var sink Metrics
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns its bank and tally; the sink is shared. NewBank
			// cannot fail: an exact bank needs only k ≥ 1 and a tally.
			var tally Metrics
			b, _ := NewBank(ExactKind, 4, workers, 0, 0, &tally, nil)
			for i := 0; i < perWorker; i++ {
				b.Inc(i%4, w)
				if i%64 == 0 {
					tally.DrainTo(&sink)
				}
			}
			tally.CoordToSite++
			tally.DrainTo(&sink)
		}(w)
	}
	for i := 0; i < 1000; i++ {
		_ = sink.Snapshot() // concurrent reads must be race-clean
	}
	wg.Wait()
	got := sink.Snapshot()
	if got.SiteToCoord != workers*perWorker || got.CoordToSite != workers {
		t.Errorf("metrics = %+v, want %d up / %d down", got, workers*perWorker, workers)
	}
}
