package counter

import (
	"math"
	"testing"

	"distbayes/internal/bn"
)

// TestEstimateRangeMatchesEstimate drives a bank of every kind through a
// random increment schedule and asserts EstimateRange bit-identical (math.Float64bits) to
// per-cell Estimate over random [lo, hi) windows. This pins the vectorized
// snapshot-rebuild read path to the scalar one the goldens were recorded
// against.
func TestEstimateRangeMatchesEstimate(t *testing.T) {
	const cells, k = 17, 5
	n := 40000
	if testing.Short() {
		n = 8000
	}

	banks := make(map[string]*Bank)
	for _, tc := range bankKinds {
		var m Metrics
		b, err := NewBank(tc.kind, cells, k, tc.eps, 0.25, &m, bn.NewRNG(99))
		if err != nil {
			t.Fatal(err)
		}
		banks[tc.name] = b
	}

	check := func(t *testing.T, b *Bank, step int) {
		t.Helper()
		rng := bn.NewRNG(uint64(step) + 1)
		lo := rng.Intn(cells + 1)
		hi := lo + rng.Intn(cells+1-lo)
		dst := make([]float64, hi-lo)
		for i := range dst {
			dst[i] = math.NaN() // must be fully overwritten
		}
		b.EstimateRange(lo, hi, dst)
		for c := lo; c < hi; c++ {
			want := b.Estimate(c)
			if math.Float64bits(dst[c-lo]) != math.Float64bits(want) {
				t.Fatalf("step %d cells [%d,%d): cell %d bulk %v (%#x) != scalar %v (%#x)",
					step, lo, hi, c, dst[c-lo], math.Float64bits(dst[c-lo]),
					want, math.Float64bits(want))
			}
		}
	}

	for name, b := range banks {
		t.Run(name, func(t *testing.T) {
			sched := bn.NewRNG(uint64(len(name)) * 0x9e3779b97f4a7c15)
			for i := 0; i < n; i++ {
				b.Inc(sched.Intn(cells), sched.Intn(k))
				if i%503 == 0 {
					check(t, b, i)
				}
			}
			// Full-range read last: every cell compared once more.
			full := make([]float64, cells)
			b.EstimateRange(0, cells, full)
			for c := 0; c < cells; c++ {
				if math.Float64bits(full[c]) != math.Float64bits(b.Estimate(c)) {
					t.Fatalf("cell %d: bulk %v != scalar %v", c, full[c], b.Estimate(c))
				}
			}
		})
	}

	t.Run("bounds", func(t *testing.T) {
		b := banks["exact"]
		for _, r := range [][2]int{{-1, 0}, {0, cells + 1}, {3, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("EstimateRange(%d, %d) did not panic", r[0], r[1])
					}
				}()
				b.EstimateRange(r[0], r[1], make([]float64, cells+2))
			}()
		}
	})
}
