package experiments

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean(nil) not NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25},
	}
	for _, tc := range cases {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile(nil) not NaN")
	}
	if !math.IsNaN(quantile(xs, -0.1)) || !math.IsNaN(quantile(xs, 1.1)) {
		t.Error("out-of-range q not NaN")
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("Median = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 100})
	if s.N != 5 || s.Min != 1 || s.Max != 100 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Mean-22) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	empty := summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Median) {
		t.Errorf("empty summary = %+v", empty)
	}
}
