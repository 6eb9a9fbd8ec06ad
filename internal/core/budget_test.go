package core

import (
	"math"
	"testing"
	"testing/quick"

	"distbayes/internal/bn"
)

// budgetCost evaluates the objective Σ c_i/ν_i of allocateBudget's program for
// a feasible point.
func budgetCost(costs, nu []float64) float64 {
	total := 0.0
	for i, c := range costs {
		total += c / nu[i]
	}
	return total
}

// optimalBudgetCost returns the objective value at the optimum without
// materializing the allocation: (Σ c^{2/3})^{3/2} / √B.
func optimalBudgetCost(costs []float64, budgetSq float64) float64 {
	sum := 0.0
	for _, c := range costs {
		sum += math.Cbrt(c * c)
	}
	return math.Pow(sum, 1.5) / math.Sqrt(budgetSq)
}

// budgetFeasible reports whether Σ ν² equals budgetSq within tol and all ν > 0.
func budgetFeasible(nu []float64, budgetSq, tol float64) bool {
	sum := 0.0
	for _, v := range nu {
		if !(v > 0) {
			return false
		}
		sum += v * v
	}
	return math.Abs(sum-budgetSq) <= tol*budgetSq
}

func TestAllocateValidation(t *testing.T) {
	if _, err := allocateBudget(nil, 1); err == nil {
		t.Error("empty costs accepted")
	}
	if _, err := allocateBudget([]float64{1, 2}, 0); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := allocateBudget([]float64{1, -2}, 1); err == nil {
		t.Error("negative cost accepted")
	}
	if _, err := allocateBudget([]float64{1, math.NaN()}, 1); err == nil {
		t.Error("NaN cost accepted")
	}
}

func TestAllocateMatchesPaperEquation7(t *testing.T) {
	// With c_i = J_i*K_i and B = eps²/256, the allocation must equal
	// ν_i = (J_iK_i)^{1/3} ε / (16 α), α = (Σ (J_iK_i)^{2/3})^{1/2}.
	eps := 0.1
	jk := []float64{6, 2, 24, 4, 8}
	nu, err := allocateBudget(jk, eps*eps/256)
	if err != nil {
		t.Fatal(err)
	}
	alpha := 0.0
	for _, c := range jk {
		alpha += math.Pow(c, 2.0/3.0)
	}
	alpha = math.Sqrt(alpha)
	for i, c := range jk {
		want := math.Cbrt(c) * eps / (16 * alpha)
		if math.Abs(nu[i]-want) > 1e-12 {
			t.Errorf("nu[%d] = %v, want %v", i, nu[i], want)
		}
	}
}

func TestAllocateFeasible(t *testing.T) {
	nu, err := allocateBudget([]float64{1, 10, 100}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if !budgetFeasible(nu, 0.25, 1e-9) {
		t.Errorf("allocation %v violates Σν² = 0.25", nu)
	}
}

func TestUniformCostsGiveUniformAllocation(t *testing.T) {
	nu, err := allocateBudget([]float64{7, 7, 7, 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nu); i++ {
		if math.Abs(nu[i]-nu[0]) > 1e-12 {
			t.Errorf("uniform costs gave non-uniform allocation %v", nu)
		}
	}
	if math.Abs(nu[0]-0.5) > 1e-12 { // 4ν² = 1 → ν = 1/2
		t.Errorf("nu = %v, want 0.5", nu[0])
	}
}

func TestOptimalCostMatchesAllocation(t *testing.T) {
	costs := []float64{3, 1, 4, 1, 5, 9}
	const b = 0.04
	nu, err := allocateBudget(costs, b)
	if err != nil {
		t.Fatal(err)
	}
	got := budgetCost(costs, nu)
	want := optimalBudgetCost(costs, b)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("budgetCost(optimal) = %v, optimalBudgetCost = %v", got, want)
	}
}

// TestAllocationOptimalityQuick verifies by property test that no random
// feasible perturbation beats the Lagrange solution.
func TestAllocationOptimalityQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := bn.NewRNG(seed)
		n := 2 + rng.Intn(6)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.5 + 100*rng.Float64()
		}
		const b = 1.0
		nu, err := allocateBudget(costs, b)
		if err != nil {
			return false
		}
		best := budgetCost(costs, nu)
		for trial := 0; trial < 25; trial++ {
			// Random positive direction, renormalized to the sphere Σν²=B.
			cand := make([]float64, n)
			sum := 0.0
			for i := range cand {
				cand[i] = nu[i] * math.Exp(0.5*(rng.Float64()-0.5))
				sum += cand[i] * cand[i]
			}
			scale := math.Sqrt(b / sum)
			for i := range cand {
				cand[i] *= scale
			}
			if budgetCost(costs, cand) < best*(1-1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFeasibleRejects(t *testing.T) {
	if budgetFeasible([]float64{0.5, 0}, 0.25, 1e-9) {
		t.Error("zero entry accepted")
	}
	if budgetFeasible([]float64{1, 1}, 0.25, 1e-9) {
		t.Error("budget violation accepted")
	}
}
