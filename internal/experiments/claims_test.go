package experiments

import (
	"fmt"
	"testing"

	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
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

// TestClaimNewAlarmRegime states why NEW-ALARM does not show the paper's
// saving at the golden's scale: m = 20 000 events over k = 5 sites, ε = 0.1,
// δ = 0.25, on seeds 1, 2 and 3. The paper reports NONUNIFORM ~35 % cheaper
// than UNIFORM, and the newalarm table's theory column (Theorem 1 against
// Theorem 2) says 44.7 %; both charge every counter as if it sampled. A
// counter sends every increment until its exact count reaches
// counter.ExactThreshold(k, ν), whatever its ν, and measured here fewer than
// half of the pair counters get there under either allocation. NONUNIFORM's
// looser ν on the large groups then saves little, its tighter ν on the small
// ones costs more, and it sends more messages than UNIFORM.
func TestClaimNewAlarmRegime(t *testing.T) {
	net, err := netgen.NewAlarm()
	if err != nil {
		t.Fatal(err)
	}
	m, err := modelOf(net, defaultCPTSeed)
	if err != nil {
		t.Fatal(err)
	}
	const events, sites = 20000, 5
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			trackers := map[core.Strategy]*core.Tracker{}
			for _, st := range []core.Strategy{core.ExactMLE, core.Uniform, core.NonUniform} {
				tr, err := core.NewTracker(net, core.Config{Strategy: st, Eps: 0.1, Delta: 0.25, Sites: sites, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				trackers[st] = tr
			}
			batch := stream.NewTraining(m, stream.NewUniformAssigner(sites, seed), seed).NextEvents(nil, events)
			for _, tr := range trackers {
				tr.UpdateEvents(batch)
			}
			// sampling is the share of pair counters whose exact count has
			// reached the threshold of st's ν for their variable.
			sampling := func(st core.Strategy) float64 {
				past, cells := 0, 0
				for i := 0; i < net.Len(); i++ {
					thresh := counter.ExactThreshold(sites, trackers[st].Allocation().EpsA[i])
					for pidx := 0; pidx < net.ParentCard(i); pidx++ {
						for v := 0; v < net.Card(i); v++ {
							if n, _ := trackers[core.ExactMLE].ExactCount(i, v, pidx); n >= thresh {
								past++
							}
							cells++
						}
					}
				}
				return float64(past) / float64(cells)
			}
			u := trackers[core.Uniform].Messages().Total()
			nu := trackers[core.NonUniform].Messages().Total()
			su, snu := sampling(core.Uniform), sampling(core.NonUniform)
			t.Logf("messages: UNIFORM %d, NONUNIFORM %d: NONUNIFORM %.1f%% cheaper (paper: ~35%%); pair counters sampling: %.1f%% under UNIFORM, %.1f%% under NONUNIFORM",
				u, nu, 100*float64(u-nu)/float64(u), 100*su, 100*snu)
			if !(nu > u) {
				t.Errorf("NONUNIFORM sent %d messages <= UNIFORM %d; measured NONUNIFORM > UNIFORM at this scale until now (paper: ~35%% cheaper)", nu, u)
			}
			if su >= 0.5 || snu >= 0.5 {
				t.Errorf("%.1f%% (UNIFORM) and %.1f%% (NONUNIFORM) of pair counters sample; measured fewer than half at this scale until now", 100*su, 100*snu)
			}
		})
	}
}
