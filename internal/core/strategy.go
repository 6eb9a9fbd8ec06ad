// Package core implements the paper's primary contribution: communication-
// efficient continuous maintenance of the parameters (CPDs) of a Bayesian
// network over a stream of training events partitioned across k distributed
// sites, with an (ε, δ)-approximation guarantee relative to the exact MLE.
//
// A Tracker owns, for each variable X_i, the distributed counters
// A_i(x_i, x_i^par) (one per CPT cell) and A_i(x_i^par) (one per parent
// configuration), following Algorithms 1 (INIT), 2 (UPDATE) and 3 (QUERY).
// The Strategy selects how the error budget ε is divided across counters:
//
//	EXACTMLE    exact counters, one message per counter update (Lemma 5)
//	BASELINE    ε' = ε/(3n) for every counter (Section IV-C)
//	UNIFORM     ε' = ε/(16√n) for every counter (Section IV-D)
//	NONUNIFORM  ν_i, µ_i from the Lagrange allocation, eqs. (7)-(8) (IV-E)
//	NAIVEBAYES  the Naïve-Bayes specialization, eq. (9) (Section V)
//
// Ingestion runs in one of two engines, chosen by Config.Shards — sequential
// (the bit-reproducible reference) and striped (Shards > 1 lock stripes) —
// documented on the Tracker type in tracker.go.
package core

import (
	"fmt"
	"math"

	"distbayes/internal/bn"
)

// Strategy selects the error-budget allocation (and EXACTMLE, which does not
// approximate at all).
type Strategy int

const (
	// ExactMLE maintains every counter exactly (the strawman of Lemma 5).
	ExactMLE Strategy = iota
	// Baseline allocates ε/(3n) to every counter (Section IV-C).
	Baseline
	// Uniform allocates ε/(16√n) to every counter (Section IV-D).
	Uniform
	// NonUniform allocates by the Lagrange solution, eqs. (7)-(8) (IV-E).
	NonUniform
	// NaiveBayes is the specialization of NonUniform to Naïve-Bayes models,
	// eq. (9) of Section V: µ_i = ε/(16√n) uniformly; ν_i by cardinality.
	NaiveBayes
)

// Strategies lists all tracker strategies in the order used by the paper's
// figures.
var Strategies = []Strategy{ExactMLE, Baseline, Uniform, NonUniform}

// String implements fmt.Stringer using the paper's algorithm names.
func (s Strategy) String() string {
	switch s {
	case ExactMLE:
		return "exact"
	case Baseline:
		return "baseline"
	case Uniform:
		return "uniform"
	case NonUniform:
		return "nonuniform"
	case NaiveBayes:
		return "naivebayes"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a name (as printed by String) back to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{ExactMLE, Baseline, Uniform, NonUniform, NaiveBayes} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q", name)
}

// Allocation holds the per-variable counter error parameters chosen by a
// strategy: EpsA[i] parameterizes the pair counters A_i(x_i, x_i^par) and
// EpsB[i] the parent counters A_i(x_i^par). For ExactMLE both are zero.
type Allocation struct {
	EpsA []float64
	EpsB []float64
}

// Allocate computes the error parameters for every variable of net under the
// given strategy and total error budget eps (the paper's epsfnA / epsfnB of
// Algorithm 1).
func Allocate(net *bn.Network, strategy Strategy, eps float64) (Allocation, error) {
	n := net.Len()
	a := Allocation{EpsA: make([]float64, n), EpsB: make([]float64, n)}
	switch strategy {
	case ExactMLE:
		return a, nil
	case Baseline:
		v := eps / (3 * float64(n))
		for i := 0; i < n; i++ {
			a.EpsA[i], a.EpsB[i] = v, v
		}
		return a, nil
	case Uniform:
		v := eps / (16 * math.Sqrt(float64(n)))
		for i := 0; i < n; i++ {
			a.EpsA[i], a.EpsB[i] = v, v
		}
		return a, nil
	case NonUniform:
		b := eps * eps / 256
		costsA := make([]float64, n)
		costsB := make([]float64, n)
		for i := 0; i < n; i++ {
			ji, ki := float64(net.Card(i)), float64(net.ParentCard(i))
			costsA[i] = ji * ki
			costsB[i] = ki
		}
		nu, err := allocateBudget(costsA, b)
		if err != nil {
			return a, err
		}
		mu, err := allocateBudget(costsB, b)
		if err != nil {
			return a, err
		}
		a.EpsA, a.EpsB = nu, mu
		return a, nil
	case NaiveBayes:
		// Equation (9): µ_i = ε/(16√n) uniformly (all K_i equal the root
		// cardinality, so the Lagrange allocation for the parent counters is
		// uniform); ν_i from the general allocation with c_i = J_i·K_i (the
		// shared factor J_1 cancels in the normalization, recovering the
		// published closed form).
		b := eps * eps / 256
		costsA := make([]float64, n)
		for i := 0; i < n; i++ {
			costsA[i] = float64(net.Card(i)) * float64(net.ParentCard(i))
		}
		nu, err := allocateBudget(costsA, b)
		if err != nil {
			return a, err
		}
		mv := eps / (16 * math.Sqrt(float64(n)))
		for i := 0; i < n; i++ {
			a.EpsB[i] = mv
		}
		a.EpsA = nu
		return a, nil
	default:
		return a, fmt.Errorf("core: unknown strategy %v", strategy)
	}
}

// allocateBudget solves the error-budget allocation problem at the heart of
// the NONUNIFORM algorithm (Section IV-E of the paper):
//
//	minimize   Σ_i c_i / ν_i
//	subject to Σ_i ν_i² = B,   ν_i > 0
//
// where c_i is the number of distributed counters in group i (so c_i/ν_i is
// proportional to that group's communication cost) and B is the squared error
// budget (ε²/256 in the paper). The Lagrange-multiplier solution is
//
//	ν_i = c_i^{1/3} · √B / (Σ_j c_j^{2/3})^{1/2}
//
// which reduces to equations (7), (8) and (9) of the paper for the choices
// c_i = J_i·K_i, c_i = K_i and the Naïve-Bayes special case respectively.
// costs and budgetSq must be positive.
func allocateBudget(costs []float64, budgetSq float64) ([]float64, error) {
	if len(costs) == 0 {
		return nil, fmt.Errorf("core: no cost groups to allocate a budget over")
	}
	if !(budgetSq > 0) || math.IsInf(budgetSq, 0) || math.IsNaN(budgetSq) {
		return nil, fmt.Errorf("core: invalid budget %v", budgetSq)
	}
	sum := 0.0
	for i, c := range costs {
		if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
			return nil, fmt.Errorf("core: cost %d is %v, want > 0", i, c)
		}
		sum += math.Cbrt(c * c) // c^{2/3}
	}
	scale := math.Sqrt(budgetSq / sum)
	nu := make([]float64, len(costs))
	for i, c := range costs {
		nu[i] = math.Cbrt(c) * scale
	}
	return nu, nil
}

// BudgetSpent returns Σ ν_i² for the pair-counter side of an allocation —
// the left side of constraint (4); useful for verifying that variance-based
// strategies respect Σ ν² ≤ ε²/256.
func (a Allocation) BudgetSpent() float64 {
	s := 0.0
	for _, v := range a.EpsA {
		s += v * v
	}
	return s
}
