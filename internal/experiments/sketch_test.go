package experiments

import (
	"math"
	"testing"
	"testing/quick"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

func TestCountMinValidation(t *testing.T) {
	if _, err := newCountMin(0, 3, 1); err == nil {
		t.Error("width=0 accepted")
	}
	if _, err := newCountMin(8, 0, 1); err == nil {
		t.Error("depth=0 accepted")
	}
	if _, err := newSketchEstimator(nil2net(t), 0, 1, 1); err == nil {
		t.Error("estimator width=0 accepted")
	}
}

func nil2net(t *testing.T) *bn.Network {
	t.Helper()
	return bn.MustNetwork([]bn.Variable{{Name: "A", Card: 2}})
}

func TestCountMinNeverUndercounts(t *testing.T) {
	f := func(seed uint64) bool {
		rng := bn.NewRNG(seed)
		cm, err := newCountMin(64, 3, seed)
		if err != nil {
			return false
		}
		truth := map[uint64]uint64{}
		for i := 0; i < 3000; i++ {
			key := uint64(rng.Intn(200))
			cm.Add(key)
			truth[key]++
		}
		for key, want := range truth {
			if cm.Count(key) < want {
				return false // CountMin must never undercount
			}
		}
		return cm.Total() == 3000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCountMinAccuracyOnSkewedKeys(t *testing.T) {
	cm, err := newCountMin(512, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := bn.NewRNG(3)
	truth := map[uint64]uint64{}
	const n = 100000
	for i := 0; i < n; i++ {
		// Zipf-ish: low keys much more frequent.
		key := uint64(rng.Intn(1 + rng.Intn(1+rng.Intn(300))))
		cm.Add(key)
		truth[key]++
	}
	// Heavy keys should be estimated within the e·N/width additive bound.
	nf := float64(n)
	bound := uint64(math.Ceil(math.E*nf/512)) + 1
	for key, want := range truth {
		if want < 1000 {
			continue
		}
		got := cm.Count(key)
		if got-want > bound {
			t.Errorf("key %d overcount %d exceeds bound %d", key, got-want, bound)
		}
	}
}

func TestEstimatorOnAlarm(t *testing.T) {
	m, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	net := m.Network()
	est, err := newSketchEstimator(net, 256, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	training := stream.NewTraining(m, stream.NewRoundRobinAssigner(1), 9)
	const events = 60000
	for e := 0; e < events; e++ {
		_, x := training.Next()
		est.Update(x)
	}
	// The sketch should use (weakly) fewer cells than the exact tables for
	// this sizing, and answer high-probability queries with modest error.
	exactCells := 0
	for i := 0; i < net.Len(); i++ {
		exactCells += net.Card(i)*net.ParentCard(i) + net.ParentCard(i)
	}
	if est.MemoryCells() > 4*exactCells {
		t.Errorf("sketch uses %d cells vs %d exact; sizing broken", est.MemoryCells(), exactCells)
	}
	queries, err := stream.GenQueries(m, stream.QueryOptions{Count: 200, MinProb: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sumErr := 0.0
	for _, q := range queries {
		got := est.QuerySubsetProb(q.Set, q.X)
		sumErr += math.Abs(got-q.Truth) / q.Truth
	}
	if mean := sumErr / float64(len(queries)); mean > 0.25 {
		t.Errorf("sketch mean relative error %v too large", mean)
	}
}

func TestEstimatorCPDInRange(t *testing.T) {
	net := bn.MustNetwork([]bn.Variable{
		{Name: "A", Card: 3},
		{Name: "B", Card: 2, Parents: []int{0}},
	})
	est, err := newSketchEstimator(net, 4, 2, 1) // deliberately tiny: collisions
	if err != nil {
		t.Fatal(err)
	}
	rng := bn.NewRNG(2)
	x := make([]int, 2)
	for i := 0; i < 5000; i++ {
		x[0], x[1] = rng.Intn(3), rng.Intn(2)
		est.Update(x)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 2; b++ {
			p := est.CPD(1, b, a)
			if p < 0 || p > 1 {
				t.Errorf("CPD estimate %v out of [0,1]", p)
			}
		}
	}
	if est.CPD(0, 0, 0) == 0 {
		t.Error("frequent cell estimated as zero")
	}
}

// TestEstimatorCPDUnseenParentUniform pins the zero-denominator fix: a
// parent configuration with no observed mass must fall back to the uniform
// 1/Card(i) instead of returning a hard 0 (which would zero out every
// QuerySubsetProb touching the unseen config).
func TestEstimatorCPDUnseenParentUniform(t *testing.T) {
	net := bn.MustNetwork([]bn.Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 4, Parents: []int{0}},
	})
	est, err := newSketchEstimator(net, 256, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh estimator has seen nothing: every CPD is the uniform fallback.
	for v := 0; v < 4; v++ {
		if got := est.CPD(1, v, 0); got != 0.25 {
			t.Errorf("unseen CPD(1,%d,0) = %v, want 0.25", v, got)
		}
	}
	// Only A=0 is ever observed; the A=1 parent row stays unseen.
	for i := 0; i < 100; i++ {
		est.Update([]int{0, i % 4})
	}
	if got := est.CPD(1, 2, 1); got != 0.25 {
		t.Errorf("unseen parent row CPD = %v, want uniform 0.25", got)
	}
	if got := est.CPD(1, 1, 0); got != 0.25 {
		t.Errorf("seen parent row CPD = %v, want 0.25 from counts", got)
	}
	// The product query through the unseen config must not collapse to 0.
	if got := est.QuerySubsetProb([]int{1}, []int{1, 2}); got == 0 {
		t.Error("QuerySubsetProb through unseen parent config = 0")
	}
}
