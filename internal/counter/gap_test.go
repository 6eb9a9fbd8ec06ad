package counter

import (
	"math"
	"slices"
	"testing"

	"distbayes/internal/bn"
)

// The per-increment coin is the one-way counter's definition: count n
// reports with probability p(n), independently. Past OneWayExactUntil the
// counter draws gaps instead (OneWayGap), which changes every report
// schedule of a seed, so the coin stays here as the oracle the gaps are
// compared with in distribution.

// coinReports is the per-increment coin over counts 1…n of one counter at
// one site: every report position, in order.
func coinReports(rng *bn.RNG, k int, eps float64, n int64) []int64 {
	sqrtK := math.Sqrt(float64(k))
	var at []int64
	for c := int64(1); c <= n; c++ {
		if p := OneWayReportProb(k, sqrtK, eps, c); p >= 1 || rng.Float64() < p {
			at = append(at, c)
		}
	}
	return at
}

// bankReports drives counts 1…n of one counter at one site through a
// one-way Bank: every report position, in order.
func bankReports(t testing.TB, rng *bn.RNG, k int, eps float64, n int64) []int64 {
	var m Metrics
	b, err := NewBank(OneWayKind, 1, k, eps, 0.25, &m, rng)
	if err != nil {
		t.Fatal(err)
	}
	var at []int64
	for c := int64(1); c <= n; c++ {
		was := m.SiteToCoord
		b.Inc(0, 0)
		if m.SiteToCoord != was {
			at = append(at, c)
		}
	}
	return at
}

// gapFalseAlarm is the false-alarm rate of each two-sample test below: the
// chance that it fails for a seed range on which gaps and coin agree in
// distribution.
const gapFalseAlarm = 1e-3

// ksExceeds runs the two-sample Kolmogorov–Smirnov test: it reports the
// largest distance D between the empirical distribution functions of a and b
// and whether D exceeds the critical value at level gapFalseAlarm,
// √(−ln(α/2)/2)·√((n+m)/(n·m)). On discrete samples the test is
// conservative: its false-alarm rate is at most α.
func ksExceeds(a, b []float64) (d float64, exceeds bool) {
	a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	n, m := float64(len(a)), float64(len(b))
	return d, d > math.Sqrt(-math.Log(gapFalseAlarm/2)/2)*math.Sqrt((n+m)/(n*m))
}

// chiSquareExceeds runs the two-sample χ² test of homogeneity on the bin
// counts a and b (bins with no count in either sample dropped): it reports
// the statistic and whether it exceeds the (1−gapFalseAlarm) quantile of
// χ² with bins−1 degrees of freedom (Wilson–Hilferty). A bin count that is a
// sum of independent Bernoulli trials varies less than the Poisson count the
// test assumes, which makes it conservative here.
func chiSquareExceeds(a, b []int64) (stat float64, df int, exceeds bool) {
	var na, nb float64
	for i := range a {
		na, nb = na+float64(a[i]), nb+float64(b[i])
	}
	for i := range a {
		if s := float64(a[i] + b[i]); s > 0 {
			d := nb*float64(a[i]) - na*float64(b[i])
			stat += d * d / (na * nb * s)
			df++
		}
	}
	df--
	const z = 3.090232306167813 // the standard normal's 1 − 10⁻³ quantile
	f := float64(df)
	crit := f * math.Pow(1-2/(9*f)+z*math.Sqrt(2/(9*f)), 3)
	return stat, df, stat > crit
}

// TestGapMatchesPerIncrementCoin: over 1 000 seeds each, the report counts
// of a one-way counter that draws gaps and of one that tosses the coin on
// every increment are one distribution (two-sample Kolmogorov–Smirnov), and
// so are their report positions past the exact phase, pooled in bins of
// doubling count (two-sample χ²), each test at false-alarm rate 10⁻³. The
// two samples use disjoint seeds. Both configurations end the exact phase
// within the first 10 counts and run 20 000, so every report past it is a
// gap's.
func TestGapMatchesPerIncrementCoin(t *testing.T) {
	const seeds, n = 1000, 20000
	for _, c := range []struct {
		k   int
		eps float64
	}{{2, 0.1}, {30, 0.02}} {
		sqrtK := math.Sqrt(float64(c.k))
		exact := OneWayExactUntil(c.k, sqrtK, c.eps)
		bins := int(math.Log2(n)) + 1
		var counts [2][]float64
		var pos [2][]int64
		for s := range 2 {
			pos[s] = make([]int64, bins)
			for seed := range uint64(seeds) {
				rng := bn.NewRNG(uint64(s)*seeds + seed + 1)
				var at []int64
				if s == 0 {
					at = bankReports(t, rng, c.k, c.eps, n)
				} else {
					at = coinReports(rng, c.k, c.eps, n)
				}
				counts[s] = append(counts[s], float64(len(at)))
				for _, a := range at {
					if a > exact {
						pos[s][int(math.Log2(float64(a)))]++
					}
				}
			}
		}
		t.Logf("k=%d eps=%v: mean reports %.2f with gaps, %.2f with the coin", c.k, c.eps, mean(counts[0]), mean(counts[1]))
		if d, bad := ksExceeds(counts[0], counts[1]); bad {
			t.Errorf("k=%d eps=%v: report counts differ from the coin's: KS distance %.4f", c.k, c.eps, d)
		}
		if stat, df, bad := chiSquareExceeds(pos[0], pos[1]); bad {
			t.Errorf("k=%d eps=%v: report positions differ from the coin's: χ² = %.1f on %d df (gaps %v, coin %v)", c.k, c.eps, stat, df, pos[0], pos[1])
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
