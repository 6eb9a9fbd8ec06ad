package cluster

import (
	"math"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/stream"
)

// coinEvent is the site kernel as it decided before it drew gaps — the
// per-increment coin past the exact phase, counter.OneWayReports on one
// rng.Float64 draw — over s's layout constants, with its own local counts
// and latest reports. It is the reference the gaps' accuracy is held to.
func coinEvent(s *siteCounters, counts, reported []int64, x, pidx []int, rng *bn.RNG) {
	for i := range s.vars {
		v := &s.vars[i]
		p := uint32(pidx[i])
		for j, id := range [2]uint32{v.pairOff + p*v.card + uint32(x[i]), v.parOff + p} {
			counts[id]++
			n := counts[id]
			if n <= v.exactUntil[j] || counter.OneWayReports(rng.Float64(), s.k, s.sqrtK, v.eps[j], n) {
				reported[id] = n
			}
		}
	}
}

// TestGapErrorNoWorseThanCoin: the coordinator's estimate of a counter is
// no less accurate when the sites draw gaps than when they toss a coin per
// increment. Over 100 seeds per approximate strategy (25 under -short) on
// alarm, with k = 4 sites, ε = 0.9 and 1 500 events routed evenly or with
// 90 % to site 0 (HotSiteShare 0 and 0.9), a counter fails when its estimate — the sum of
// counter.OneWayEstimate over the sites' latest reports — is off its exact
// count by more than its own ε′. Only counters that some site counted past
// counter.OneWayExactUntil are scored, the ones whose reports the gaps decide.
// Both protocols see the same events and draw from disjoint seeds; the gaps'
// failure rate may exceed the coin's only by what a one-sided
// two-proportion z-test at false-alarm rate 10⁻³ allows. (ExactMLE's
// counters report every count under either protocol.)
func TestGapErrorNoWorseThanCoin(t *testing.T) {
	const k, eps, events = 4, 0.9, 1500
	seeds := 100
	if testing.Short() {
		seeds = 25
	}
	model := testModel(t, "alarm", 0xC0DE)
	netw := model.Network()
	n := netw.Len()
	strategies := allStrategies[1:]
	if allStrategies[0] != core.ExactMLE {
		t.Fatal("allStrategies no longer starts with ExactMLE")
	}
	// Per strategy: the layout, and each counter's ε′ and exact phase end.
	layouts := make([]*counterLayout, len(strategies))
	epsOf, exactUntil := make([][]float64, len(strategies)), make([][]int64, len(strategies))
	for si, strategy := range strategies {
		layout, err := newCounterLayout(netw, strategy, eps)
		if err != nil {
			t.Fatal(err)
		}
		layouts[si] = layout
		for _, sec := range layout.sections {
			for range sec.hi - sec.lo {
				epsOf[si] = append(epsOf[si], sec.eps)
				exactUntil[si] = append(exactUntil[si], counter.OneWayExactUntil(k, math.Sqrt(k), sec.eps))
			}
		}
	}
	for _, hot := range []float64{0, 0.9} {
		fails, scored := make([][2]int, len(strategies)), make([][2]int, len(strategies))
		xs, ps := make([][]int, k), make([][]int, k)
		for seed := range uint64(seeds) {
			for site := range k {
				share := events / k
				if hot > 0 {
					share = (events - int(hot*events)) / (k - 1)
					if site == 0 {
						share = int(hot * events)
					}
				}
				training := stream.NewSiteTraining(model, site, seed+1)
				xs[site], ps[site] = xs[site][:0], ps[site][:0]
				for range share {
					_, x := training.Next()
					xs[site] = append(xs[site], x...)
					ps[site] = append(ps[site], training.ParentIndices()...)
				}
			}
			for si, layout := range layouts {
				size := layout.NumCounters()
				exact := make([]int64, size)
				est := [2][]float64{make([]float64, size), make([]float64, size)}
				past := make([]bool, size)
				for site := range k {
					gap := newSiteCounters(layout, k)
					counts, reported := make([]int64, size), make([]int64, size)
					gapRNG := bn.NewRNG(seed<<8 | uint64(site))
					coinRNG := bn.NewRNG(seed<<8 | uint64(site) | 1<<40)
					for e := 0; e < len(xs[site]); e += n {
						gap.event(xs[site][e:e+n], ps[site][e:e+n], gapRNG)
						coinEvent(gap, counts, reported, xs[site][e:e+n], ps[site][e:e+n], coinRNG)
					}
					for id := range size {
						e := epsOf[si][id]
						exact[id] += counts[id]
						past[id] = past[id] || counts[id] > exactUntil[si][id]
						est[0][id] += counter.OneWayEstimate(k, gap.sqrtK, e, gap.reported.vals[id])
						est[1][id] += counter.OneWayEstimate(k, gap.sqrtK, e, reported[id])
					}
				}
				for id := range size {
					if !past[id] {
						continue
					}
					e := epsOf[si][id]
					for s := range 2 {
						scored[si][s]++
						if math.Abs(est[s][id]-float64(exact[id])) > e*float64(exact[id]) {
							fails[si][s]++
						}
					}
				}
			}
		}
		for si, strategy := range strategies {
			f, m := fails[si], scored[si]
			if m[0] < 4*seeds {
				t.Fatalf("%v hot=%v: %d counters scored, too few to compare", strategy, hot, m[0])
			}
			gapRate, coinRate := float64(f[0])/float64(m[0]), float64(f[1])/float64(m[1])
			pooled := float64(f[0]+f[1]) / float64(m[0]+m[1])
			se := math.Sqrt(pooled * (1 - pooled) * (1/float64(m[0]) + 1/float64(m[1])))
			t.Logf("%v hot=%v: %d counters scored; failure rate %.4f with gaps, %.4f with the coin", strategy, hot, m[0], gapRate, coinRate)
			const z = 3.090232306167813 // the standard normal's 1 − 10⁻³ quantile
			if gapRate-coinRate > z*se {
				t.Errorf("%v hot=%v: failure rate %.4f with gaps, %.4f with the per-increment coin (%d counters)", strategy, hot, gapRate, coinRate, m[0])
			}
		}
	}
}
