package experiments

import (
	"fmt"
	"testing"

	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// The paper's claims about its approximate strategies, each an inequality
// checked on several seeds at a scale fixed before the runs. A claim the
// system contradicts is asserted as measured, with the paper's claim quoted
// beside it, so that a change which moves it either way fails here.

// TestClaimNaiveBayesAllocation checks Lemma 11 (Section V, eq. 9): on a
// Naïve-Bayes network the NAIVEBAYES allocation costs no more messages than
// the general NONUNIFORM one. The fixture is a 5-class net with 30 features
// of cardinality 2..6, tracked at m = 20 000 events over k = 5 sites with
// ε = 0.1, δ = 0.25, the median of two runs per seed.
func TestClaimNaiveBayesAllocation(t *testing.T) {
	featureCards := make([]int, 30)
	for i := range featureCards {
		featureCards[i] = 2 + i%5
	}
	net, err := netgen.NaiveBayesNet(5, featureCards)
	if err != nil {
		t.Fatal(err)
	}
	m, err := modelOf(net, defaultCPTSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := runTracking(trackingSpec{
				model: m, strategies: []core.Strategy{core.Uniform, core.NonUniform, core.NaiveBayes},
				checkpoints: []int{20000}, eps: 0.1, delta: 0.25, sites: 5,
				queries: 1, minProb: 0.01, runs: 2, seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			u := messages(res, core.Uniform, 0)
			nu := messages(res, core.NonUniform, 0)
			nb := messages(res, core.NaiveBayes, 0)
			t.Logf("messages: UNIFORM %v, NONUNIFORM %v, NAIVEBAYES %v", u, nu, nb)
			if nb > nu {
				t.Errorf("NAIVEBAYES sent %v messages > NONUNIFORM %v (Lemma 11: NAIVEBAYES <= NONUNIFORM)", nb, nu)
			}
			// The paper expects both specialised allocations to undercut
			// UNIFORM (Theorems 1 and 2, Lemma 11: NAIVEBAYES <= NONUNIFORM
			// <= UNIFORM). Measured here, UNIFORM sends the fewest messages:
			// seed 1 reads 870 621 (UNIFORM) < 875 168 (NAIVEBAYES) <
			// 876 263.5 (NONUNIFORM).
			if !(u < nb) {
				t.Errorf("UNIFORM sent %v messages >= NAIVEBAYES %v; measured UNIFORM < NAIVEBAYES until now", u, nb)
			}
		})
	}
}
