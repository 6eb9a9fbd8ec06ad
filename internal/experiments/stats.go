package experiments

import (
	"math"
	"slices"
)

// The summary statistics the tables report: means, quantiles and boxplot
// five-number summaries.

// mean returns the arithmetic mean of xs, or NaN for empty input.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median returns the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics; NaN for empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// summary is a boxplot five-number summary plus mean and count.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// summarize computes the summary of xs.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return summary{N: 0, Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan, Mean: nan}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   mean(s),
	}
}
