package core

import (
	"math"
	"testing"

	"distbayes/internal/bn"
)

// testModel builds a 3-variable chain model A(2) -> B(3) -> C(2) with fixed
// CPTs for deterministic expectations.
func testModel(t *testing.T) *bn.Model {
	t.Helper()
	nw := bn.MustNetwork([]bn.Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 3, Parents: []int{0}},
		{Name: "C", Card: 2, Parents: []int{1}},
	})
	cptA, _ := bn.NewCPT(2, 1, []float64{0.6, 0.4})
	cptB, _ := bn.NewCPT(3, 2, []float64{0.5, 0.3, 0.2, 0.1, 0.2, 0.7})
	cptC, _ := bn.NewCPT(2, 3, []float64{0.9, 0.1, 0.5, 0.5, 0.2, 0.8})
	return bn.MustModel(nw, []*bn.CPT{cptA, cptB, cptC})
}

func TestConfigValidation(t *testing.T) {
	net := testModel(t).Network()
	bad := []Config{
		{Strategy: Uniform, Eps: 0, Sites: 3},
		{Strategy: Uniform, Eps: 1.5, Sites: 3},
		{Strategy: Uniform, Eps: 0.1, Sites: 0},
		{Strategy: Uniform, Eps: 0.1, Sites: 3, Smoothing: -1},
		{Strategy: Uniform, Eps: 0.1, Sites: 3, Delta: 1.5},
		{Strategy: ExactMLE, Sites: 3, Smoothing: math.NaN()},
		{Strategy: ExactMLE, Sites: 3, Smoothing: math.Inf(1)},
		{Strategy: ExactMLE, Sites: 3, Smoothing: math.Inf(-1)},
		{Strategy: Uniform, Eps: 0.1, Sites: 3, Delta: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := NewTracker(net, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// ExactMLE ignores eps.
	if _, err := NewTracker(net, Config{Strategy: ExactMLE, Sites: 3}); err != nil {
		t.Errorf("exact MLE config rejected: %v", err)
	}
}

func TestExactMLEMatchesLiteralCounting(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, err := NewTracker(net, Config{Strategy: ExactMLE, Sites: 4})
	if err != nil {
		t.Fatal(err)
	}

	s := m.NewSampler(99)
	const events = 5000
	// Literal counts for comparison.
	pairCount := map[[3]int]int{} // (var, value, pidx)
	parCount := map[[2]int]int{}  // (var, pidx)
	x := make([]int, net.Len())
	for e := 0; e < events; e++ {
		s.Sample(x)
		tr.Update(e%4, x)
		for i := 0; i < net.Len(); i++ {
			pidx := net.ParentIndex(i, x)
			pairCount[[3]int{i, x[i], pidx}]++
			parCount[[2]int{i, pidx}]++
		}
	}

	if tr.Events() != events {
		t.Errorf("Events = %d, want %d", tr.Events(), events)
	}
	// Lemma 5 accounting: 2n messages per event, no broadcasts.
	wantMsgs := int64(2 * net.Len() * events)
	if got := tr.Messages(); got.SiteToCoord != wantMsgs || got.CoordToSite != 0 {
		t.Errorf("messages = %+v, want %d up / 0 down", got, wantMsgs)
	}

	// QueryProb equals the product of empirical ratios.
	queries := [][]int{{0, 0, 0}, {1, 2, 1}, {0, 1, 1}, {1, 1, 0}}
	for _, q := range queries {
		want := 1.0
		for i := 0; i < net.Len(); i++ {
			pidx := net.ParentIndex(i, q)
			pc := parCount[[2]int{i, pidx}]
			if pc == 0 {
				want = 0
				break
			}
			want *= float64(pairCount[[3]int{i, q[i], pidx}]) / float64(pc)
		}
		if got := tr.QueryProb(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("QueryProb(%v) = %v, want %v", q, got, want)
		}
	}

	// ExactCount must agree with the literal tally.
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				gotPair, gotPar := tr.ExactCount(i, v, pidx)
				if gotPair != int64(pairCount[[3]int{i, v, pidx}]) {
					t.Fatalf("pair count (%d,%d,%d) = %d, want %d", i, v, pidx, gotPair, pairCount[[3]int{i, v, pidx}])
				}
				if gotPar != int64(parCount[[2]int{i, pidx}]) {
					t.Fatalf("par count (%d,%d) = %d, want %d", i, pidx, gotPar, parCount[[2]int{i, pidx}])
				}
			}
		}
	}
}

func TestUpdateSiteRangePanics(t *testing.T) {
	tr, err := NewTracker(testModel(t).Network(), Config{Strategy: ExactMLE, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range site did not panic")
		}
	}()
	tr.Update(2, []int{0, 0, 0})
}

func TestQueryProbUnseenIsZeroAndSmoothingPositive(t *testing.T) {
	net := testModel(t).Network()
	tr, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 1})
	if got := tr.QueryProb([]int{0, 0, 0}); got != 0 {
		t.Errorf("empty tracker QueryProb = %v, want 0", got)
	}
	sm, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 1, Smoothing: 0.5})
	if got := sm.QueryProb([]int{0, 0, 0}); got <= 0 {
		t.Errorf("smoothed empty tracker QueryProb = %v, want > 0", got)
	}
	// Smoothed estimate of a CPD cell with no data is uniform.
	if got, want := sm.QueryCPD(1, 0, 0), 1.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("smoothed empty CPD = %v, want %v", got, want)
	}
}

func TestApproximateTrackersCloseToMLE(t *testing.T) {
	// Core guarantee check: on a moderate stream, each approximate strategy's
	// joint estimate is within e^{±O(ε)} of the exact-MLE estimate.
	m := testModel(t)
	net := m.Network()
	const (
		events = 60000
		sites  = 10
		eps    = 0.1
	)
	exact, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: sites})
	trackers := map[Strategy]*Tracker{}
	for _, st := range []Strategy{Baseline, Uniform, NonUniform} {
		tr, err := NewTracker(net, Config{Strategy: st, Eps: eps, Sites: sites, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		trackers[st] = tr
	}
	s := m.NewSampler(123)
	route := bn.NewRNG(321)
	x := make([]int, net.Len())
	for e := 0; e < events; e++ {
		s.Sample(x)
		site := route.Intn(sites)
		exact.Update(site, x)
		for _, tr := range trackers {
			tr.Update(site, x)
		}
	}

	queries := [][]int{}
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				queries = append(queries, []int{a, b, c})
			}
		}
	}
	for st, tr := range trackers {
		if tr.Messages().Total() >= exact.Messages().Total() {
			t.Errorf("%v sent %d messages, exact sent %d: no saving", st, tr.Messages().Total(), exact.Messages().Total())
		}
		for _, q := range queries {
			ref := exact.QueryProb(q)
			got := tr.QueryProb(q)
			if ref <= 0 {
				continue
			}
			ratio := got / ref
			// Definition 2 at ε=0.1 allows [e^-ε, e^ε]; leave slack for the
			// constant-factor looseness of Chebyshev in a single run.
			if ratio < math.Exp(-3*eps) || ratio > math.Exp(3*eps) {
				t.Errorf("%v: query %v ratio to MLE = %v, outside e^{±%v}", st, q, ratio, 3*eps)
			}
		}
	}
}

// chainModel builds an n-variable chain with cardinality card and random
// CPTs; big enough n lets the asymptotic strategy ordering show.
func chainModel(t *testing.T, n, card int, seed uint64) *bn.Model {
	t.Helper()
	vars := make([]bn.Variable, n)
	for i := range vars {
		vars[i] = bn.Variable{Name: "V", Card: card}
		if i > 0 {
			vars[i].Parents = []int{i - 1}
		}
	}
	nw := bn.MustNetwork(vars)
	rng := bn.NewRNG(seed)
	cpds := make([]*bn.CPT, n)
	for i := range cpds {
		tbl := make([]float64, nw.Card(i)*nw.ParentCard(i))
		for k := 0; k < nw.ParentCard(i); k++ {
			row := tbl[k*nw.Card(i) : (k+1)*nw.Card(i)]
			rng.Dirichlet(2.0, row)
			// Keep probabilities off the floor so all cells get traffic.
			for j := range row {
				row[j] = 0.9*row[j] + 0.1/float64(len(row))
			}
		}
		var err error
		cpds[i], err = bn.NewCPT(nw.Card(i), nw.ParentCard(i), tbl)
		if err != nil {
			t.Fatal(err)
		}
	}
	return bn.MustModel(nw, cpds)
}

func TestUniformCheaperThanBaselineOnLargeNet(t *testing.T) {
	// BASELINE allocates ε/(3n) per counter, UNIFORM ε/(16√n): UNIFORM's
	// allocation is looser (hence cheaper) only once 16√n < 3n, i.e. n ≥ 29.
	// Use n = 40, the regime of all the paper's networks (n ∈ [37, 1041]).
	m := chainModel(t, 40, 2, 1)
	net := m.Network()
	const events, sites, eps = 30000, 10, 0.1
	run := func(st Strategy) int64 {
		tr, err := NewTracker(net, Config{Strategy: st, Eps: eps, Sites: sites, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s := m.NewSampler(55)
		route := bn.NewRNG(66)
		x := make([]int, net.Len())
		for e := 0; e < events; e++ {
			s.Sample(x)
			tr.Update(route.Intn(sites), x)
		}
		return tr.Messages().Total()
	}
	b := run(Baseline)
	u := run(Uniform)
	nu := run(NonUniform)
	if u >= b {
		t.Errorf("uniform (%d) not cheaper than baseline (%d)", u, b)
	}
	if nu > u+u/10 {
		t.Errorf("nonuniform (%d) much costlier than uniform (%d)", nu, u)
	}
}

func TestBaselineCheaperThanUniformOnTinyNet(t *testing.T) {
	// Converse regime: with n = 3 < 29 BASELINE's per-counter epsilon is the
	// larger one, so it should cost fewer messages than UNIFORM.
	m := testModel(t)
	net := m.Network()
	const events, sites, eps = 50000, 10, 0.1
	run := func(st Strategy) int64 {
		tr, err := NewTracker(net, Config{Strategy: st, Eps: eps, Sites: sites, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s := m.NewSampler(55)
		route := bn.NewRNG(66)
		x := make([]int, net.Len())
		for e := 0; e < events; e++ {
			s.Sample(x)
			tr.Update(route.Intn(sites), x)
		}
		return tr.Messages().Total()
	}
	if b, u := run(Baseline), run(Uniform); b >= u {
		t.Errorf("baseline (%d) not cheaper than uniform (%d) at n=3", b, u)
	}
}

func TestClassifyAgainstExactPosterior(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 2, Smoothing: 0.5})
	s := m.NewSampler(31)
	x := make([]int, net.Len())
	for e := 0; e < 30000; e++ {
		s.Sample(x)
		tr.Update(e%2, x)
	}
	// With plentiful data the tracked classifier should agree with the
	// ground-truth Markov-blanket classifier on most test points.
	agree, total := 0, 0
	for trial := 0; trial < 500; trial++ {
		s.Sample(x)
		for target := 0; target < net.Len(); target++ {
			want := m.PredictVar(target, x)
			got := tr.Classify(target, x)
			if got == want {
				agree++
			}
			total++
		}
	}
	if rate := float64(agree) / float64(total); rate < 0.95 {
		t.Errorf("agreement with ground-truth classifier = %v, want >= 0.95", rate)
	}
}

func TestClassifyRestoresEvidence(t *testing.T) {
	tr, _ := NewTracker(testModel(t).Network(), Config{Strategy: ExactMLE, Sites: 1, Smoothing: 1})
	x := []int{1, 2, 0}
	tr.Classify(1, x)
	if x[0] != 1 || x[1] != 2 || x[2] != 0 {
		t.Errorf("evidence mutated: %v", x)
	}
}

func TestEstimatedModelNormalizedAndAccurate(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, _ := NewTracker(net, Config{Strategy: Uniform, Eps: 0.1, Sites: 5, Seed: 3})
	s := m.NewSampler(17)
	route := bn.NewRNG(18)
	x := make([]int, net.Len())
	for e := 0; e < 80000; e++ {
		s.Sample(x)
		tr.Update(route.Intn(5), x)
	}
	est, err := tr.EstimatedModel()
	if err != nil {
		t.Fatal(err)
	}
	// Row normalization is asserted by bn.NewCPT; check closeness to truth.
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				truth := m.CPD(i).P(v, pidx)
				got := est.CPD(i).P(v, pidx)
				if math.Abs(got-truth) > 0.05 {
					t.Errorf("CPD[%d](%d|%d) = %v, truth %v", i, v, pidx, got, truth)
				}
			}
		}
	}
}

func TestEstimatedModelEmptyTrackerUniform(t *testing.T) {
	net := testModel(t).Network()
	tr, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 1})
	est, err := tr.EstimatedModel()
	if err != nil {
		t.Fatal(err)
	}
	if got := est.CPD(1).P(0, 0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("empty CPD cell = %v, want 1/3", got)
	}
}

func TestTrackerDeterministicForSeed(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	run := func() (int64, float64) {
		tr, _ := NewTracker(net, Config{Strategy: NonUniform, Eps: 0.1, Sites: 6, Seed: 1234})
		s := m.NewSampler(5)
		route := bn.NewRNG(6)
		x := make([]int, net.Len())
		for e := 0; e < 20000; e++ {
			s.Sample(x)
			tr.Update(route.Intn(6), x)
		}
		return tr.Messages().Total(), tr.QueryProb([]int{1, 1, 1})
	}
	m1, q1 := run()
	m2, q2 := run()
	if m1 != m2 || q1 != q2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", m1, q1, m2, q2)
	}
}

func TestQuerySubsetProb(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 1})
	s := m.NewSampler(77)
	x := make([]int, net.Len())
	for e := 0; e < 50000; e++ {
		s.Sample(x)
		tr.Update(0, x)
	}
	set := net.AncestralClosure([]int{1}) // {A, B}
	q := []int{0, 1, 0}
	got := tr.QuerySubsetProb(set, q)
	want := m.SubsetProb(set, q) // 0.6 * 0.3
	if math.Abs(got-want) > 0.02 {
		t.Errorf("QuerySubsetProb = %v, want ~%v", got, want)
	}
}

// TestEpsilonDeltaGuaranteeStatistical validates Definition 2 empirically:
// across many independent UNIFORM runs, the fraction of (run, query) pairs
// whose tracked probability falls outside e^{±eps} of the exact MLE must be
// small. The analysis guarantees failure probability 1/4 per run at the
// allocated budget; the measured rate is far lower because Chebyshev is
// loose, so the 10% threshold leaves margin without being vacuous.
func TestEpsilonDeltaGuaranteeStatistical(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	m := chainModel(t, 30, 2, 3)
	net := m.Network()
	const (
		eps    = 0.2
		sites  = 10
		events = 20000
		reps   = 30
	)
	queries := [][]int{}
	rng := bn.NewRNG(13)
	for qi := 0; qi < 20; qi++ {
		x := make([]int, net.Len())
		for i := range x {
			x[i] = rng.Intn(net.Card(i))
		}
		queries = append(queries, x)
	}
	outside, total := 0, 0
	for rep := 0; rep < reps; rep++ {
		exact, err := NewTracker(net, Config{Strategy: ExactMLE, Sites: sites})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTracker(net, Config{
			Strategy: Uniform, Eps: eps, Sites: sites, Seed: uint64(1000 + rep),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := m.NewSampler(uint64(500 + rep))
		route := bn.NewRNG(uint64(700 + rep))
		x := make([]int, net.Len())
		for e := 0; e < events; e++ {
			s.Sample(x)
			site := route.Intn(sites)
			exact.Update(site, x)
			tr.Update(site, x)
		}
		for _, q := range queries {
			ref := exact.QueryProb(q)
			if ref <= 0 {
				continue
			}
			ratio := tr.QueryProb(q) / ref
			total++
			if ratio < math.Exp(-eps) || ratio > math.Exp(eps) {
				outside++
			}
		}
	}
	if total == 0 {
		t.Fatal("no valid queries")
	}
	if rate := float64(outside) / float64(total); rate > 0.10 {
		t.Errorf("(eps,delta) violation rate %v (%d/%d) exceeds 10%%", rate, outside, total)
	}
}

func TestInferMarginalAgainstGroundTruth(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 2})
	s := m.NewSampler(3)
	x := make([]int, net.Len())
	for e := 0; e < 60000; e++ {
		s.Sample(x)
		tr.Update(e%2, x)
	}
	// P[B=2] under the truth: sum over A of P[A]*P[B=2|A].
	want := 0.6*0.2 + 0.4*0.7
	got, err := tr.InferMarginal(map[int]int{1: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.02 {
		t.Errorf("InferMarginal = %v, want ~%v", got, want)
	}
	if _, err := tr.InferMarginal(nil); err == nil {
		t.Error("empty inference query accepted")
	}
}

func TestClassifyPartial(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, _ := NewTracker(net, Config{Strategy: ExactMLE, Sites: 2, Smoothing: 0.5})
	s := m.NewSampler(13)
	x := make([]int, net.Len())
	for e := 0; e < 40000; e++ {
		s.Sample(x)
		tr.Update(e%2, x)
	}
	// Predict A from C only (B unobserved): compare against the ground-truth
	// posterior argmax computed by exact inference on the true model.
	for c := 0; c < net.Card(2); c++ {
		got, err := tr.ClassifyPartial(0, map[int]int{2: c})
		if err != nil {
			t.Fatal(err)
		}
		bestY, bestP := -1, -1.0
		for y := 0; y < net.Card(0); y++ {
			p, err := m.ConditionalProb(map[int]int{0: y}, map[int]int{2: c})
			if err != nil {
				t.Fatal(err)
			}
			if p > bestP {
				bestY, bestP = y, p
			}
		}
		if got != bestY {
			t.Errorf("C=%d: ClassifyPartial = %d, truth argmax = %d", c, got, bestY)
		}
	}
	// Validation.
	if _, err := tr.ClassifyPartial(9, nil); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := tr.ClassifyPartial(0, map[int]int{0: 1}); err == nil {
		t.Error("target in evidence accepted")
	}
}
