package bn

import (
	"math"
	"testing"
	"testing/quick"
)

// coinChain builds the 2-variable model A -> B with
// P[A=1]=0.3, P[B=1|A=0]=0.2, P[B=1|A=1]=0.9.
func coinChain(t *testing.T) *Model {
	t.Helper()
	nw := MustNetwork([]Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 2, Parents: []int{0}},
	})
	cptA, err := NewCPT(2, 1, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	cptB, err := NewCPT(2, 2, []float64{0.8, 0.2, 0.1, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(nw, []*CPT{cptA, cptB})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewModelValidation(t *testing.T) {
	nw := MustNetwork([]Variable{{Name: "A", Card: 2}})
	cpt2, _ := NewCPT(2, 1, []float64{0.5, 0.5})
	cpt3, _ := NewCPT(3, 1, []float64{0.2, 0.3, 0.5})

	if _, err := NewModel(nw, nil); err == nil {
		t.Error("missing CPTs accepted")
	}
	if _, err := NewModel(nw, []*CPT{nil}); err == nil {
		t.Error("nil CPT accepted")
	}
	if _, err := NewModel(nw, []*CPT{cpt3}); err == nil {
		t.Error("mis-shaped CPT accepted")
	}
	if _, err := NewModel(nw, []*CPT{cpt2}); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestJointProbFactorization(t *testing.T) {
	m := coinChain(t)
	cases := []struct {
		x    []int
		want float64
	}{
		{[]int{0, 0}, 0.7 * 0.8},
		{[]int{0, 1}, 0.7 * 0.2},
		{[]int{1, 0}, 0.3 * 0.1},
		{[]int{1, 1}, 0.3 * 0.9},
	}
	total := 0.0
	for _, tc := range cases {
		got := m.JointProb(tc.x)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("JointProb(%v) = %v, want %v", tc.x, got, tc.want)
		}
		total += got
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("joint distribution sums to %v, want 1", total)
	}
}

func TestJointSumsToOneQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		// Random 4-node DAG where node i may take parents among 0..i-1.
		vars := make([]Variable, 4)
		for i := range vars {
			vars[i] = Variable{Name: "V", Card: 1 + rng.Intn(3)}
			for p := 0; p < i; p++ {
				if rng.Bernoulli(0.5) {
					vars[i].Parents = append(vars[i].Parents, p)
				}
			}
		}
		nw, err := NewNetwork(vars)
		if err != nil {
			return false
		}
		cpds := make([]*CPT, 4)
		for i := range cpds {
			tbl := make([]float64, nw.Card(i)*nw.ParentCard(i))
			for k := 0; k < nw.ParentCard(i); k++ {
				rng.Dirichlet(1.0, tbl[k*nw.Card(i):(k+1)*nw.Card(i)])
			}
			cpds[i], err = NewCPT(nw.Card(i), nw.ParentCard(i), tbl)
			if err != nil {
				return false
			}
		}
		m, err := NewModel(nw, cpds)
		if err != nil {
			return false
		}
		// Enumerate all assignments; the joint must sum to 1.
		sum := 0.0
		x := make([]int, 4)
		var rec func(int)
		rec = func(i int) {
			if i == 4 {
				sum += m.JointProb(x)
				return
			}
			for v := 0; v < nw.Card(i); v++ {
				x[i] = v
				rec(i + 1)
			}
		}
		rec(0)
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSamplerMatchesDistribution(t *testing.T) {
	m := coinChain(t)
	s := m.NewSampler(42)
	const nSamples = 200000
	counts := map[[2]int]int{}
	x := make([]int, 2)
	for i := 0; i < nSamples; i++ {
		s.Sample(x)
		counts[[2]int{x[0], x[1]}]++
	}
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			want := m.JointProb([]int{a, b})
			got := float64(counts[[2]int{a, b}]) / nSamples
			// 3-sigma-ish bound for a binomial proportion at n=200k.
			tol := 3.5 * math.Sqrt(want*(1-want)/nSamples)
			if math.Abs(got-want) > tol {
				t.Errorf("empirical P[%d,%d] = %v, want %v +/- %v", a, b, got, want, tol)
			}
		}
	}
}

func TestSamplerDeterministicForSeed(t *testing.T) {
	m := coinChain(t)
	s1 := m.NewSampler(7)
	s2 := m.NewSampler(7)
	for i := 0; i < 100; i++ {
		a := s1.Sample(nil)
		b := s2.Sample(nil)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("sample %d diverged: %v vs %v", i, a, b)
		}
	}
}

// oracleDraw is the historical inverse-CDF row scan: the first value whose
// running sum exceeds u, the last value when none does.
func oracleDraw(row []float64, u float64) int {
	acc := 0.0
	for j, pj := range row {
		acc += pj
		if u < acc {
			return j
		}
	}
	return len(row) - 1 // fall through to the last value on rounding
}

// OracleSample is the historical Sampler.Sample loop, kept as the reference
// the compiled sampler must match draw for draw. Exported (from a test file,
// so to tests only) for sampler_test.go, which lives in package bn_test
// because it imports netgen.
func OracleSample(m *Model, rng *RNG, dst []int) []int {
	for _, i := range m.net.order {
		dst[i] = oracleDraw(m.cpds[i].Row(m.net.ParentIndex(i, dst)), rng.Float64())
	}
	return dst
}

// CheckSamplerMatchesOracle draws events assignments from m with the compiled
// sampler and with the oracle loop on the same seed and requires equal
// values, parent indices equal to Network.ParentIndex, and equal generator
// states afterwards (same number of draws).
func CheckSamplerMatchesOracle(t *testing.T, m *Model, seed uint64, events int) {
	t.Helper()
	s, rng := m.NewSampler(seed), NewRNG(seed)
	n := m.net.Len()
	got, want := make([]int, n), make([]int, n)
	for e := 0; e < events; e++ {
		s.Sample(got)
		OracleSample(m, rng, want)
		for i := 0; i < n; i++ {
			if got[i] != want[i] {
				t.Fatalf("seed %d event %d: x[%d] = %d, oracle %d", seed, e, i, got[i], want[i])
			}
			if pidx := s.ParentIndices()[i]; pidx != m.net.ParentIndex(i, want) {
				t.Fatalf("seed %d event %d: parent index of %d = %d, want %d", seed, e, i, pidx, m.net.ParentIndex(i, want))
			}
		}
	}
	if s.rng.State() != rng.State() {
		t.Fatalf("seed %d: generator states differ after %d events", seed, events)
	}
}

// adversarialRows are valid CPT rows the branch-free scan could get wrong:
// zero-probability entries at the start, in the middle and at the end, a
// zero last entry behind a sum that stops short of 1, and a single value.
var adversarialRows = [][]float64{
	{0, 0.25, 0.75},
	{0.5, 0, 0, 0.5},
	{0.25, 0.75, 0},
	{0, 0, 1},
	{1, 0, 0},
	{0.5, 0.5 - 1e-10, 0},
	{0.1, 0.2, 0.3, 0.4},
	{1},
}

// TestDrawCumMatchesOracle compares the row draw with the historical scan at
// every u that could tell them apart: 0, each running sum and its two
// neighbours, and the largest u below 1 — which falls through to the last
// value even where that value has probability zero, as it always has.
func TestDrawCumMatchesOracle(t *testing.T) {
	for _, row := range adversarialRows {
		us := []float64{0, math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
		cum := make([]float64, len(row))
		acc := 0.0
		for j, p := range row {
			acc += p
			cum[j] = acc
			us = append(us, acc, math.Nextafter(acc, 0), math.Nextafter(acc, 2))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := drawCum(cum, u), oracleDraw(row, u); got != want {
				t.Errorf("row %v u %v: drawCum = %d, oracle %d", row, u, got, want)
			}
		}
	}
}

// TestSamplerMatchesOracleAdversarial runs the whole-sampler comparison on a
// root-only network and on a network whose every row is adversarial,
// including a card-1 variable used as a parent.
func TestSamplerMatchesOracleAdversarial(t *testing.T) {
	rootOnly := MustNetwork([]Variable{{Name: "A", Card: 3}, {Name: "B", Card: 1}, {Name: "C", Card: 4}})
	var rootCPDs []*CPT
	for _, row := range [][]float64{adversarialRows[0], adversarialRows[7], adversarialRows[1]} {
		c, err := NewCPT(len(row), 1, row)
		if err != nil {
			t.Fatal(err)
		}
		rootCPDs = append(rootCPDs, c)
	}
	// D depends on (C, B, A) declared out of topological order: D first.
	nw := MustNetwork([]Variable{
		{Name: "D", Card: 3, Parents: []int{3, 2, 1}},
		{Name: "A", Card: 3},
		{Name: "B", Card: 1},
		{Name: "C", Card: 4, Parents: []int{1}},
	})
	three := [][]float64{adversarialRows[0], adversarialRows[2], adversarialRows[3], adversarialRows[4], adversarialRows[5]}
	var tblD, tblC []float64
	for k := 0; k < nw.ParentCard(0); k++ {
		tblD = append(tblD, three[k%len(three)]...)
	}
	for k := 0; k < nw.ParentCard(3); k++ {
		tblC = append(tblC, [][]float64{adversarialRows[1], adversarialRows[6]}[k%2]...)
	}
	cD, errD := NewCPT(3, nw.ParentCard(0), tblD)
	cC, errC := NewCPT(4, nw.ParentCard(3), tblC)
	if errD != nil || errC != nil {
		t.Fatal(errD, errC)
	}
	for _, m := range []*Model{MustModel(rootOnly, rootCPDs), MustModel(nw, []*CPT{cD, rootCPDs[0], rootCPDs[1], cC})} {
		for seed := uint64(1); seed <= 3; seed++ {
			CheckSamplerMatchesOracle(t, m, seed, 5000)
		}
	}
}

func TestSubsetProb(t *testing.T) {
	// A -> B, C independent; closure({B}) = {A,B}.
	nw := MustNetwork([]Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 2, Parents: []int{0}},
		{Name: "C", Card: 2},
	})
	cptA, _ := NewCPT(2, 1, []float64{0.6, 0.4})
	cptB, _ := NewCPT(2, 2, []float64{0.9, 0.1, 0.2, 0.8})
	cptC, _ := NewCPT(2, 1, []float64{0.5, 0.5})
	m := MustModel(nw, []*CPT{cptA, cptB, cptC})

	set := nw.AncestralClosure([]int{1})
	x := []int{1, 0, 0} // A=1, B=0; C ignored
	want := 0.4 * 0.2
	if got := m.SubsetProb(set, x); math.Abs(got-want) > 1e-12 {
		t.Errorf("SubsetProb = %v, want %v", got, want)
	}
	// Marginalization check: sum over C of full joint equals SubsetProb.
	sum := m.JointProb([]int{1, 0, 0}) + m.JointProb([]int{1, 0, 1})
	if math.Abs(sum-want) > 1e-12 {
		t.Errorf("marginal by enumeration = %v, want %v", sum, want)
	}
}

func TestPredictVarAgainstEnumeration(t *testing.T) {
	rng := NewRNG(11)
	// Random 5-node model; compare blanket prediction against brute force
	// over the target variable with everything else fixed.
	vars := make([]Variable, 5)
	for i := range vars {
		vars[i] = Variable{Name: "V", Card: 2 + rng.Intn(2)}
		for p := 0; p < i; p++ {
			if rng.Bernoulli(0.4) {
				vars[i].Parents = append(vars[i].Parents, p)
			}
		}
	}
	nw := MustNetwork(vars)
	cpds := make([]*CPT, 5)
	for i := range cpds {
		tbl := make([]float64, nw.Card(i)*nw.ParentCard(i))
		for k := 0; k < nw.ParentCard(i); k++ {
			rng.Dirichlet(1.0, tbl[k*nw.Card(i):(k+1)*nw.Card(i)])
		}
		var err error
		cpds[i], err = NewCPT(nw.Card(i), nw.ParentCard(i), tbl)
		if err != nil {
			t.Fatal(err)
		}
	}
	m := MustModel(nw, cpds)

	x := make([]int, 5)
	for trial := 0; trial < 200; trial++ {
		for i := range x {
			x[i] = rng.Intn(nw.Card(i))
		}
		for tgt := 0; tgt < 5; tgt++ {
			pred := m.PredictVar(tgt, x)
			// Brute force joint argmax.
			bestY, bestP := -1, -1.0
			saved := x[tgt]
			for y := 0; y < nw.Card(tgt); y++ {
				x[tgt] = y
				if p := m.JointProb(x); p > bestP {
					bestY, bestP = y, p
				}
			}
			x[tgt] = saved
			if pred != bestY {
				t.Fatalf("trial %d target %d: PredictVar = %d, brute force = %d", trial, tgt, pred, bestY)
			}
		}
	}
}

func TestPredictVarRestoresEvidence(t *testing.T) {
	m := coinChain(t)
	x := []int{1, 0}
	m.PredictVar(0, x)
	if x[0] != 1 || x[1] != 0 {
		t.Errorf("evidence mutated: %v", x)
	}
}

func TestPosteriorVarNormalized(t *testing.T) {
	m := coinChain(t)
	x := []int{0, 1}
	post := m.PosteriorVar(0, x)
	sum := 0.0
	for _, p := range post {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("posterior sums to %v", sum)
	}
	// P(A | B=1) ∝ {0.7*0.2, 0.3*0.9}
	w0, w1 := 0.7*0.2, 0.3*0.9
	if math.Abs(post[0]-w0/(w0+w1)) > 1e-12 {
		t.Errorf("post[0] = %v, want %v", post[0], w0/(w0+w1))
	}
}

func TestRNGDirichletAndGamma(t *testing.T) {
	rng := NewRNG(5)
	// Gamma(shape) has mean shape; check a loose empirical mean.
	for _, shape := range []float64{0.5, 1, 3} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			g := rng.Gamma(shape)
			if g < 0 {
				t.Fatalf("Gamma(%v) returned negative %v", shape, g)
			}
			sum += g
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.12*shape+0.05 {
			t.Errorf("Gamma(%v) empirical mean %v", shape, mean)
		}
	}
	row := make([]float64, 6)
	for trial := 0; trial < 100; trial++ {
		rng.Dirichlet(0.5, row)
		sum := 0.0
		for _, p := range row {
			if p < 0 {
				t.Fatalf("Dirichlet produced negative weight %v", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("Dirichlet row sums to %v", sum)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	rng := NewRNG(123)
	const n = 120000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		buckets[int(f*10)]++
	}
	for b, c := range buckets {
		if math.Abs(float64(c)-n/10) > 0.05*n/10 {
			t.Errorf("bucket %d has %d draws, want ~%d", b, c, n/10)
		}
	}
	if rng.Intn(1) != 0 {
		t.Error("Intn(1) != 0")
	}
}
