package core

import (
	"fmt"
	"math"

	"distbayes/internal/bn"
)

// CostBound returns the structure-dependent factor of the theoretical
// communication bound of each algorithm, i.e. the Γ-like quantity that
// multiplies the common √k/1 · log(1/δ) · log m factor:
//
//	BASELINE    (Theorem of IV-C): (Σ J_iK_i + Σ K_i) · 3n/ε
//	UNIFORM     (Theorem 1):       (Σ J_iK_i + Σ K_i) · 16√n/ε
//	NONUNIFORM  (Theorem 2):       16/ε · [ (Σ (J_iK_i)^{2/3})^{3/2} +
//	                                        (Σ K_i^{2/3})^{3/2} ]
//
// For ExactMLE the communication is not of this form (it is linear in the
// stream length), so CostBound returns an error. The ratios between bounds
// predict which algorithm should communicate less in the regime where every
// counter is in its sampling phase; the NEW-ALARM experiment reports these
// next to measured message counts.
func CostBound(net *bn.Network, strategy Strategy, eps float64) (float64, error) {
	if !(eps > 0 && eps < 1) {
		return 0, fmt.Errorf("core: eps = %v, want 0 < eps < 1", eps)
	}
	n := float64(net.Len())
	sumJK, sumK := 0.0, 0.0
	sumJK23, sumK23 := 0.0, 0.0
	for i := 0; i < net.Len(); i++ {
		jk := float64(net.Card(i)) * float64(net.ParentCard(i))
		k := float64(net.ParentCard(i))
		sumJK += jk
		sumK += k
		sumJK23 += math.Cbrt(jk * jk)
		sumK23 += math.Cbrt(k * k)
	}
	switch strategy {
	case Baseline:
		return (sumJK + sumK) * 3 * n / eps, nil
	case Uniform:
		return (sumJK + sumK) * 16 * math.Sqrt(n) / eps, nil
	case NonUniform, NaiveBayes:
		return 16 / eps * (math.Pow(sumJK23, 1.5) + math.Pow(sumK23, 1.5)), nil
	case ExactMLE:
		return 0, fmt.Errorf("core: ExactMLE communication is linear in the stream, not bounded by a Γ factor")
	default:
		return 0, fmt.Errorf("core: unknown strategy %v", strategy)
	}
}
