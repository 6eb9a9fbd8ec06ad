package decay

import (
	"math"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
)

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Gamma: 0, BlockEvents: 10, Sites: 2},
		{Gamma: 1.5, BlockEvents: 10, Sites: 2},
		{Gamma: 0.9, BlockEvents: 0, Sites: 2},
		{Gamma: 0.9, BlockEvents: 10, Sites: 0},
	}
	for i, o := range bad {
		if _, err := NewBank(o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
}

func TestDecayedCounterGeometricDecay(t *testing.T) {
	bank, err := NewBank(Options{Gamma: 0.5, BlockEvents: 100, Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m counter.Metrics
	rng := bn.NewRNG(1)
	cc, err := bank.Factory()(0, &m, rng) // exact sub-counters
	if err != nil {
		t.Fatal(err)
	}
	// Block 1: 100 increments.
	for i := 0; i < 100; i++ {
		cc.Inc(0)
		if err := bank.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// After rotation the old block is worth 50.
	if got := cc.Estimate(); math.Abs(got-50) > 1e-9 {
		t.Errorf("after one idle rotation: %v, want 50", got)
	}
	// Three more idle blocks: 50 -> 25 -> 12.5 -> 6.25.
	for b := 0; b < 3; b++ {
		for i := 0; i < 100; i++ {
			if err := bank.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := cc.Estimate(); math.Abs(got-6.25) > 1e-9 {
		t.Errorf("after four idle rotations: %v, want 6.25", got)
	}
	if ex := cc.Exact(); ex != 6 { // rounded decayed truth
		t.Errorf("Exact = %d, want 6", ex)
	}
}

func TestDecayedCounterApproximateSubcounters(t *testing.T) {
	bank, err := NewBank(Options{Gamma: 0.9, BlockEvents: 5000, Sites: 8})
	if err != nil {
		t.Fatal(err)
	}
	var m counter.Metrics
	rng := bn.NewRNG(3)
	cc, err := bank.Factory()(0.1, &m, rng)
	if err != nil {
		t.Fatal(err)
	}
	dc := cc.(*Counter)
	for i := 0; i < 60000; i++ {
		cc.Inc(i % 8)
		if err := bank.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	truth := dc.DecayedTrue()
	if truth <= 0 {
		t.Fatal("decayed truth should be positive")
	}
	if rel := math.Abs(cc.Estimate()-truth) / truth; rel > 0.3 {
		t.Errorf("decayed estimate off by %v", rel)
	}
}

// TestDriftAdaptation feeds a tracker data from model A, then from a shifted
// model B; the decayed tracker must follow B while the plain tracker stays
// stuck between the two.
func TestDriftAdaptation(t *testing.T) {
	nw := bn.MustNetwork([]bn.Variable{{Name: "X", Card: 2}})
	cptA, _ := bn.NewCPT(2, 1, []float64{0.9, 0.1})
	cptB, _ := bn.NewCPT(2, 1, []float64{0.1, 0.9})
	modelA := bn.MustModel(nw, []*bn.CPT{cptA})
	modelB := bn.MustModel(nw, []*bn.CPT{cptB})

	bank, err := NewBank(Options{Gamma: 0.3, BlockEvents: 2000, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	decayed, err := core.NewTracker(nw, core.Config{
		Strategy: core.ExactMLE, Sites: 2, CounterFactory: bank.Factory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.NewTracker(nw, core.Config{Strategy: core.ExactMLE, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}

	feed := func(m *bn.Model, events int, seed uint64) {
		s := m.NewSampler(seed)
		x := make([]int, 1)
		for e := 0; e < events; e++ {
			s.Sample(x)
			decayed.Update(e%2, x)
			plain.Update(e%2, x)
			if err := bank.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(modelA, 20000, 5)
	feed(modelB, 20000, 6)

	// P[X=1] is 0.9 under the recent distribution.
	decayedP := decayed.QueryCPD(0, 1, 0)
	plainP := plain.QueryCPD(0, 1, 0)
	if math.Abs(decayedP-0.9) > 0.05 {
		t.Errorf("decayed tracker P[X=1] = %v, want ~0.9", decayedP)
	}
	if math.Abs(plainP-0.5) > 0.05 {
		t.Errorf("plain tracker P[X=1] = %v, want ~0.5 (stuck on history)", plainP)
	}
}

func TestBankTicksAndMultipleCounters(t *testing.T) {
	bank, err := NewBank(Options{Gamma: 0.8, BlockEvents: 10, Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m counter.Metrics
	rng := bn.NewRNG(9)
	f := bank.Factory()
	c1, _ := f(0, &m, rng)
	c2, _ := f(0, &m, rng)
	for i := 0; i < 25; i++ {
		c1.Inc(0)
		if i%2 == 0 {
			c2.Inc(0)
		}
		if err := bank.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if bank.Ticks() != 25 {
		t.Errorf("ticks = %d", bank.Ticks())
	}
	if c1.Estimate() <= c2.Estimate() {
		t.Errorf("c1 (%v) should exceed c2 (%v)", c1.Estimate(), c2.Estimate())
	}
}
