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
