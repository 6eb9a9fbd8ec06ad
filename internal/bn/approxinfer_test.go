package bn

import (
	"math"
	"testing"
)

// inferenceFixture returns a positive random 6-variable model and a
// query/evidence pair with non-trivial probability.
func inferenceFixture(t *testing.T, seed uint64) (*Model, map[int]int, map[int]int, float64) {
	t.Helper()
	rng := NewRNG(seed)
	m := positiveRandomModel(rng, 6)
	query := map[int]int{2: 1}
	evidence := map[int]int{5: 0}
	want, err := m.ConditionalProb(query, evidence)
	if err != nil {
		t.Fatal(err)
	}
	return m, query, evidence, want
}

// positiveRandomModel builds a random model whose CPT entries are bounded
// away from zero (Gibbs ergodicity).
func positiveRandomModel(rng *RNG, n int) *Model {
	vars := make([]Variable, n)
	for i := range vars {
		vars[i] = Variable{Name: "V", Card: 2 + rng.Intn(2)}
		for p := 0; p < i; p++ {
			if rng.Bernoulli(0.4) {
				vars[i].Parents = append(vars[i].Parents, p)
			}
		}
	}
	nw := MustNetwork(vars)
	cpds := make([]*CPT, n)
	for i := range cpds {
		j := nw.Card(i)
		tbl := make([]float64, j*nw.ParentCard(i))
		for k := 0; k < nw.ParentCard(i); k++ {
			row := tbl[k*j : (k+1)*j]
			rng.Dirichlet(1.0, row)
			for v := range row {
				row[v] = 0.85*row[v] + 0.15/float64(j)
			}
		}
		cpds[i], _ = NewCPT(j, nw.ParentCard(i), tbl)
	}
	return MustModel(nw, cpds)
}

func TestLikelihoodWeightingMatchesVE(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		m, query, evidence, want := inferenceFixture(t, seed)
		got, err := m.LikelihoodWeighting(query, evidence, 60000, seed*7)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.02 {
			t.Errorf("seed %d: LW = %v, VE = %v", seed, got, want)
		}
	}
}

func TestGibbsMatchesVE(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		m, query, evidence, want := inferenceFixture(t, seed)
		got, err := m.GibbsMarginal(query, evidence, 40000, 2000, seed*13)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.03 {
			t.Errorf("seed %d: Gibbs = %v, VE = %v", seed, got, want)
		}
	}
}

func TestApproxInferValidation(t *testing.T) {
	m := coinChain(t)
	if _, err := m.LikelihoodWeighting(nil, nil, 100, 1); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := m.LikelihoodWeighting(map[int]int{0: 0}, nil, 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := m.LikelihoodWeighting(map[int]int{0: 0}, map[int]int{0: 1}, 10, 1); err == nil {
		t.Error("overlapping query/evidence accepted")
	}
	if _, err := m.GibbsMarginal(map[int]int{9: 0}, nil, 10, 1, 1); err == nil {
		t.Error("out-of-range query accepted")
	}
	if _, err := m.GibbsMarginal(map[int]int{0: 0}, nil, 0, 0, 1); err == nil {
		t.Error("zero iters accepted")
	}
}

func TestLikelihoodWeightingNoEvidence(t *testing.T) {
	m := coinChain(t)
	// P[B=1] = 0.41 with no evidence.
	got, err := m.LikelihoodWeighting(map[int]int{1: 1}, nil, 80000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.41) > 0.01 {
		t.Errorf("LW unconditional = %v, want 0.41", got)
	}
}
