package core

import (
	"math"
	"testing"

	"distbayes/internal/bn"
)

func testNet(t *testing.T) *bn.Network {
	t.Helper()
	// A(3) -> C(2) <- B(2), C -> D(4): varied J_i and K_i.
	return bn.MustNetwork([]bn.Variable{
		{Name: "A", Card: 3},
		{Name: "B", Card: 2},
		{Name: "C", Card: 2, Parents: []int{0, 1}},
		{Name: "D", Card: 4, Parents: []int{2}},
	})
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		ExactMLE:     "exact",
		Baseline:     "baseline",
		Uniform:      "uniform",
		NonUniform:   "nonuniform",
		NaiveBayes:   "naivebayes",
		Strategy(42): "Strategy(42)",
	}
	for s, want := range names {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
	for _, s := range []Strategy{ExactMLE, Baseline, Uniform, NonUniform, NaiveBayes} {
		back, err := ParseStrategy(s.String())
		if err != nil || back != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), back, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus name")
	}
}

func TestAllocateBaselineUniform(t *testing.T) {
	net := testNet(t)
	const eps = 0.12
	n := float64(net.Len())

	a, err := Allocate(net, Baseline, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.EpsA {
		if want := eps / (3 * n); a.EpsA[i] != want || a.EpsB[i] != want {
			t.Errorf("baseline eps[%d] = (%v,%v), want %v", i, a.EpsA[i], a.EpsB[i], want)
		}
	}

	u, err := Allocate(net, Uniform, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u.EpsA {
		if want := eps / (16 * math.Sqrt(n)); u.EpsA[i] != want || u.EpsB[i] != want {
			t.Errorf("uniform eps[%d] = (%v,%v), want %v", i, u.EpsA[i], u.EpsB[i], want)
		}
	}
	// UNIFORM spends exactly the variance budget ε²/256.
	if got, want := u.BudgetSpent(), eps*eps/256; math.Abs(got-want) > 1e-15 {
		t.Errorf("uniform budget spent = %v, want %v", got, want)
	}
}

func TestAllocateNonUniformMatchesEquations(t *testing.T) {
	net := testNet(t)
	const eps = 0.1
	a, err := Allocate(net, NonUniform, eps)
	if err != nil {
		t.Fatal(err)
	}
	// Equation (7): ν_i = (J_iK_i)^{1/3} ε / (16α), α = (Σ(J_iK_i)^{2/3})^{1/2}.
	alpha := 0.0
	for i := 0; i < net.Len(); i++ {
		alpha += math.Pow(float64(net.Card(i)*net.ParentCard(i)), 2.0/3.0)
	}
	alpha = math.Sqrt(alpha)
	for i := 0; i < net.Len(); i++ {
		want := math.Cbrt(float64(net.Card(i)*net.ParentCard(i))) * eps / (16 * alpha)
		if math.Abs(a.EpsA[i]-want) > 1e-12 {
			t.Errorf("nu[%d] = %v, want %v", i, a.EpsA[i], want)
		}
	}
	// Equation (8): µ_i = K_i^{1/3} ε / (16β), β = (ΣK_i^{2/3})^{1/2}.
	beta := 0.0
	for i := 0; i < net.Len(); i++ {
		beta += math.Pow(float64(net.ParentCard(i)), 2.0/3.0)
	}
	beta = math.Sqrt(beta)
	for i := 0; i < net.Len(); i++ {
		want := math.Cbrt(float64(net.ParentCard(i))) * eps / (16 * beta)
		if math.Abs(a.EpsB[i]-want) > 1e-12 {
			t.Errorf("mu[%d] = %v, want %v", i, a.EpsB[i], want)
		}
	}
	// Constraint (4): Σν² = ε²/256 on both sides.
	if got, want := a.BudgetSpent(), eps*eps/256; math.Abs(got-want) > 1e-12 {
		t.Errorf("Σν² = %v, want %v", got, want)
	}
	sumMu := 0.0
	for _, v := range a.EpsB {
		sumMu += v * v
	}
	if want := eps * eps / 256; math.Abs(sumMu-want) > 1e-12 {
		t.Errorf("Σµ² = %v, want %v", sumMu, want)
	}
	// Higher-cardinality variables must get looser (larger) error params.
	if a.EpsA[3] <= a.EpsA[1] {
		t.Errorf("nu[D]=%v should exceed nu[B]=%v (8 cells vs 2)", a.EpsA[3], a.EpsA[1])
	}
}

func naiveBayesNet(cards []int) *bn.Network {
	vars := make([]bn.Variable, len(cards))
	vars[0] = bn.Variable{Name: "class", Card: cards[0]}
	for i := 1; i < len(cards); i++ {
		vars[i] = bn.Variable{Name: "f", Card: cards[i], Parents: []int{0}}
	}
	return bn.MustNetwork(vars)
}

func TestAllocateNaiveBayes(t *testing.T) {
	net := naiveBayesNet([]int{3, 2, 4, 5})
	const eps = 0.1
	a, err := Allocate(net, NaiveBayes, eps)
	if err != nil {
		t.Fatal(err)
	}
	// µ_i = ε/(16√n) for all i (eq. 9).
	mv := eps / (16 * math.Sqrt(4))
	for i, got := range a.EpsB {
		if got != mv {
			t.Errorf("mu[%d] = %v, want %v", i, got, mv)
		}
	}
	// ν ratios across the non-root variables follow J_i^{1/3} (eq. 9; the
	// shared J_1 factor cancels).
	r21 := a.EpsA[2] / a.EpsA[1]
	want := math.Cbrt(4.0 / 2.0)
	if math.Abs(r21-want) > 1e-12 {
		t.Errorf("nu ratio = %v, want %v", r21, want)
	}
	if got, want := a.BudgetSpent(), eps*eps/256; math.Abs(got-want) > 1e-12 {
		t.Errorf("Σν² = %v, want %v", got, want)
	}
}

func TestAllocateUnknownStrategy(t *testing.T) {
	if _, err := Allocate(testNet(t), Strategy(99), 0.1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestCostBound(t *testing.T) {
	net := testNet(t)
	b, err := CostBound(net, Baseline, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := CostBound(net, Uniform, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	nu, err := CostBound(net, NonUniform, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !(b > 0 && u > 0 && nu > 0) {
		t.Fatalf("non-positive bounds: %v %v %v", b, u, nu)
	}
	// NONUNIFORM's bound is optimal: never above UNIFORM's.
	if nu > u*(1+1e-12) {
		t.Errorf("nonuniform bound %v exceeds uniform %v", nu, u)
	}
	if _, err := CostBound(net, ExactMLE, 0.1); err == nil {
		t.Error("ExactMLE bound accepted")
	}
	if _, err := CostBound(net, Uniform, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := CostBound(net, Strategy(77), 0.1); err == nil {
		t.Error("unknown strategy accepted")
	}
}
