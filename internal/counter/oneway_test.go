package counter

import (
	"errors"
	"math"
	"testing"

	"distbayes/internal/bn"
)

func TestReportProbLocal(t *testing.T) {
	const k = 4
	sqrtK := math.Sqrt(k)
	if p := OneWayReportProb(k, sqrtK, 0, 100); p != 1 {
		t.Errorf("eps=0 (exact) p = %v, want 1", p)
	}
	if p := OneWayReportProb(k, sqrtK, 0.1, 0); p != 1 {
		t.Errorf("zero count p = %v, want 1", p)
	}
	// Global proxy = k*n = 4000: p = 2/(0.1*4000) = 0.005.
	if p := OneWayReportProb(k, sqrtK, 0.1, 1000); math.Abs(p-0.005) > 1e-12 {
		t.Errorf("p = %v, want 0.005", p)
	}
	if e := OneWayEstimate(k, sqrtK, 0.1, 0); e != 0 {
		t.Errorf("estimate at r=0 = %v", e)
	}
	// At r = 1000 the tail is (1-p)/p = 199.
	if e := OneWayEstimate(k, sqrtK, 0.1, 1000); math.Abs(e-1199) > 1e-9 {
		t.Errorf("estimate at r=1000 = %v, want 1199", e)
	}
}

// TestExactUntilMatchesBruteForce: the integer bound that replaces the
// exact-phase divide is the last count at which the float expression itself
// still says "report with probability 1". The error parameters span the
// strategies' allocations on the bundled networks (ε/(3n) at n = 1041 is
// about 3·10⁻⁵) and some seeded values between.
func TestExactUntilMatchesBruteForce(t *testing.T) {
	epss := []float64{0, 3.2e-5, 1e-4, 1.1e-3, 0.01, 0.0123, 0.05, 0.1, 0.3, 1}
	rng := bn.NewRNG(5)
	for range 20 {
		epss = append(epss, math.Pow(10, -4+3*rng.Float64()))
	}
	for _, k := range []int{1, 2, 4, 30, 64} {
		sqrtK := math.Sqrt(float64(k))
		for _, eps := range epss {
			want := int64(math.MaxInt64)
			if eps > 0 {
				for want = 0; OneWayReportProb(k, sqrtK, eps, want+1) >= 1; want++ {
				}
			}
			if got := OneWayExactUntil(k, sqrtK, eps); got != want {
				t.Errorf("k=%d eps=%v: OneWayExactUntil = %d, brute force %d", k, eps, got, want)
			}
		}
	}
	// An error parameter so large that even the first increment is sampled,
	// and one so small that no run leaves the exact phase.
	if got := OneWayExactUntil(4, 2, 10); got != 0 {
		t.Errorf("OneWayExactUntil(eps=10) = %d, want 0", got)
	}
	if got := OneWayExactUntil(4, 2, 1e-300); got != math.MaxInt64 {
		t.Errorf("OneWayExactUntil(eps=1e-300) = %d, want MaxInt64", got)
	}
}

// TestOneWayKindHasNoStateRecord: a one-way bank writes no record, and a
// record carrying the one-way kind byte is refused by name, whatever bank
// reads it.
func TestOneWayKindHasNoStateRecord(t *testing.T) {
	var m Metrics
	oneWay, err := NewBank(OneWayKind, 3, 4, 0.1, 0.25, &m, bn.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	oneWay.Inc(1, 2)
	if _, err := oneWay.MarshalBinary(); !errors.Is(err, errOneWayState) {
		t.Errorf("MarshalBinary of a one-way bank: %v, want %v", err, errOneWayState)
	}
	if n := oneWay.StateLen(); n != 0 {
		t.Errorf("StateLen of a one-way bank = %d, want 0", n)
	}
	hyz, err := NewBank(HYZKind, 3, 4, 0.1, 0.25, &m, bn.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := hyz.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data[1] = byte(OneWayKind)
	for _, b := range []*Bank{hyz, oneWay} {
		if err := b.UnmarshalBinary(data); !errors.Is(err, errOneWayState) {
			t.Errorf("kind-%d bank read a one-way record: %v, want %v", b.kind, err, errOneWayState)
		}
	}
}

// FuzzOneWayReports holds the divide-free decision to its definition: for a
// coin u on bn.RNG.Float64's grid (a 53-bit integer over 2⁵³), k in 1…64, ε′
// in (0, 1) and a local count n ≥ 1, OneWayReports says exactly
// u < OneWayReportProb. The seeds put u on p and one grid step either side
// (inside the 2⁻⁴⁰ band, where the divide decides), just outside the band
// on both sides, and at the exact-phase boundary n = OneWayExactUntil+1.
func FuzzOneWayReports(f *testing.F) {
	const grid = 1 << 53
	for _, k := range []int{1, 2, 5, 64} {
		sqrtK := math.Sqrt(float64(k))
		for _, eps := range []float64{3.2e-5, 0.013, 0.1, 0.5, 0.999} {
			until := OneWayExactUntil(k, sqrtK, eps)
			for _, n := range []int64{until + 1, until + 7, 1_000_003, 1 << 40} {
				i := uint64(OneWayReportProb(k, sqrtK, eps, n) * grid) // exact: a power-of-two scale
				band := i>>39 + 2
				for _, u := range []uint64{i - 1, i, i + 1, i - band, i + band} {
					f.Add(u, uint8(k-1), eps, n)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, ui uint64, kb uint8, eps float64, n int64) {
		if !(eps > 0 && eps < 1) || n < 1 {
			return
		}
		u, k := float64(ui%grid)/grid, 1+int(kb%64)
		sqrtK := math.Sqrt(float64(k))
		if got, want := OneWayReports(u, k, sqrtK, eps, n), u < OneWayReportProb(k, sqrtK, eps, n); got != want {
			t.Fatalf("OneWayReports(%v, %d, %v, %v, %d) = %v, u < OneWayReportProb = %v", u, k, sqrtK, eps, n, got, want)
		}
	})
}

// TestOneWayReportsEdges checks the rest of the domain OneWayReports states
// beyond the fuzz target's: error parameters ≤ 0, subnormal and huge (d
// underflowing, d overflowing), a count of 0, and coins off the 2⁻⁵³ grid,
// subnormal among them.
func TestOneWayReportsEdges(t *testing.T) {
	us := []float64{0, 5e-324, 1e-310, 1e-200, 0.3, 0.5, 1 - 0x1p-53, math.Nextafter(0.5, 0)}
	epss := []float64{-0.1, 0, 5e-324, 1e-310, 1e-300, 0.1, 1, 1e300, math.MaxFloat64}
	for _, k := range []int{1, 3, 64} {
		sqrtK := math.Sqrt(float64(k))
		for _, eps := range epss {
			for _, n := range []int64{0, 1, 2, 1 << 40, math.MaxInt64} {
				for _, u := range us {
					if got, want := OneWayReports(u, k, sqrtK, eps, n), u < OneWayReportProb(k, sqrtK, eps, n); got != want {
						t.Errorf("OneWayReports(%v, %d, %v, %v, %d) = %v, u < OneWayReportProb = %v", u, k, sqrtK, eps, n, got, want)
					}
				}
			}
		}
	}
}

// FuzzOneWayGap holds the proposal draw to its domain: for k in 1…64, ε′ in
// (0, 1), a count from in [1, 2⁶²] and a coin u on bn.RNG.Float64's grid,
// oneWayNext's rate is the report probability at from, in (0, 1]; its next
// is at least from, without overflow: from plus the floor of the geometric
// gap ln(1−u)/ln(1−q), or MaxInt64 exactly when that gap would pass it; and
// OneWayGap.Decide at from, drawing from a generator seeded with u's bits,
// leaves its next proposal past from.
// OneWayExactUntil, for the same k and ε′, is where p is last 1. The seeds
// put u at 0, at the top of the grid and between, from at 1, at the exact
// phase's end and at 2⁶², and q where the gap saturates.
func FuzzOneWayGap(f *testing.F) {
	const grid = 1 << 53
	for _, k := range []int{1, 2, 30, 64} {
		sqrtK := math.Sqrt(float64(k))
		for _, eps := range []float64{3.2e-5, 0.013, 0.1, 0.999} {
			for _, from := range []int64{1, OneWayExactUntil(k, sqrtK, eps) + 1, 1 << 40, 1 << 62} {
				for _, u := range []uint64{0, 1, grid / 3, grid - 1} {
					f.Add(u, uint8(k-1), eps, from)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, ui uint64, kb uint8, eps float64, from int64) {
		if !(eps > 0 && eps < 1) || from < 1 || from > 1<<62 {
			return
		}
		u, k := float64(ui%grid)/grid, 1+int(kb%64)
		sqrtK := math.Sqrt(float64(k))
		next, q := oneWayNext(u, k, sqrtK, eps, from)
		if q != OneWayReportProb(k, sqrtK, eps, from) || !(q > 0 && q <= 1) {
			t.Fatalf("oneWayNext(%v, %d, %v, %d): rate %v, want OneWayReportProb in (0, 1]", u, k, eps, from, q)
		}
		if next < from {
			t.Fatalf("oneWayNext(%v, %d, %v, %d) = %d, before from", u, k, eps, from, next)
		}
		// The gap as a real number: ln(1−u)/ln(1−q) ≥ 0.
		real := math.Log(1-u) / math.Log1p(-q)
		if next == math.MaxInt64 {
			if room := float64(math.MaxInt64 - from); real < room*(1-1e-9) {
				t.Fatalf("oneWayNext(%v, %d, %v, %d) saturated, but the gap %v fits in %v", u, k, eps, from, real, room)
			}
		} else if g := float64(next - from); g > real || real >= g+1+1e-9*g+1e-9 {
			t.Fatalf("oneWayNext(%v, %d, %v, %d): gap %v, not the floor of %v", u, k, eps, from, g, real)
		}
		var g OneWayGap
		if g.Decide(bn.NewRNG(ui|1), k, sqrtK, eps, from); g.Next <= from {
			t.Fatalf("OneWayGap.Decide(%d, %v, %d) left its next proposal at %d", k, eps, from, g.Next)
		}
		if e := OneWayExactUntil(k, sqrtK, eps); e != math.MaxInt64 {
			if OneWayReportProb(k, sqrtK, eps, e+1) >= 1 || (e > 0 && OneWayReportProb(k, sqrtK, eps, e) < 1) {
				t.Fatalf("OneWayExactUntil(%d, %v) = %d: p there %v, one later %v", k, eps, e,
					OneWayReportProb(k, sqrtK, eps, e), OneWayReportProb(k, sqrtK, eps, e+1))
			}
		}
	})
}
