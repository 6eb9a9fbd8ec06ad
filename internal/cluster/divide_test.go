package cluster

import (
	"math"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// checkFactors asserts that every Factor of s is want's cell (CPT layout) and
// every table of s.Model() is want normalized, both Float64bits for
// Float64bits.
func checkFactors(t *testing.T, s *core.Snapshot, want [][]float64) {
	t.Helper()
	net := s.Network()
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := bn.NewNormalizedModel(net, func(i int, tbl []float64) { copy(tbl, want[i]) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		j := net.Card(i)
		for c, w := range want[i] {
			if got := s.Factor(i, c%j, c/j); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("Factor of variable %d cell %d = %v, oracle %v", i, c, got, w)
			}
			if got, w := m.CPD(i).P(c%j, c/j), wm.CPD(i).P(c%j, c/j); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("Model table %d cell %d = %v, oracle %v", i, c, got, w)
			}
		}
	}
}

// TestCoordinatorFactorDividesOnRead: the coordinator's snapshot is a view of
// its estimate vector, and its Factor is est[pair]/est[par], 0 where est[par]
// ≤ 0 — the ratio it used to store — with the Model built from it.
func TestCoordinatorFactorDividesOnRead(t *testing.T) {
	_, co, err := RunLocal(Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25,
		Sites: 3, Events: 1200, StreamSeed: 43, SiteBatchEvents: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := allEstimates(co)
	snap := co.AcquireSnapshot()
	net := snap.Network()
	want := make([][]float64, net.Len())
	empty := 0
	for i := range want {
		j, k := net.Card(i), net.ParentCard(i)
		want[i] = make([]float64, j*k)
		for pidx := 0; pidx < k; pidx++ {
			den := est[co.layout.ParID(i, pidx)]
			if den <= 0 {
				empty++
				continue
			}
			for v := 0; v < j; v++ {
				want[i][pidx*j+v] = est[co.layout.PairID(i, v, pidx)] / den
			}
		}
	}
	checkFactors(t, snap, want)
	if empty == 0 {
		t.Error("no parent configuration without mass; the oracle's 0 branch went unchecked")
	}
}

// TestLearnedFactorsMatchCountRatios: the learned overlay stores counts, and
// its Factor is the ratio it used to store — count over the parent's
// marginal, and 1/J_i on an empty marginal — on an empty window (every row
// uniform) and on a window of one event (one parent value with mass per
// variable), for a chain tree over alarm's variables.
func TestLearnedFactorsMatchCountRatios(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	net := model.Network()
	n := net.Len()
	e, err := newStructEngine(net, 1, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]bn.Variable, n)
	for i := range vars {
		vars[i] = bn.Variable{Name: net.Var(i).Name, Card: net.Card(i)}
		if i > 0 {
			vars[i].Parents = []int{i - 1}
		}
	}
	learned := bn.MustNetwork(vars)
	for _, events := range []int{0, 1} {
		win := make([]int64, e.layout.Cells())
		for a := 0; a < n && events > 0; a++ {
			for b := a + 1; b < n; b++ {
				e.layout.JointAt(win, e.layout.PairIndex(a, b))[(a%net.Card(a))*net.Card(b)+b%net.Card(b)]++
			}
		}
		want := make([][]float64, n)
		for i := range want {
			ci, cp := net.Card(i), learned.ParentCard(i)
			want[i] = make([]float64, ci*cp)
			// The counts behind each cell: for the root, its marginal from
			// pair (0, 1) over the total; for X_i, the joint with X_{i-1}
			// (rows indexed by the parent) over the parent's marginal.
			lo := max(i-1, 0)
			joint, cHi := e.layout.JointAt(win, e.layout.PairIndex(lo, lo+1)), net.Card(lo+1)
			for pv := 0; pv < cp; pv++ {
				var den int64
				c := make([]int64, ci)
				for k, cnt := range joint {
					if i == 0 {
						c[k/cHi] += cnt
						den += cnt
					} else if k/cHi == pv {
						c[k%cHi] += cnt
						den += cnt
					}
				}
				for v := 0; v < ci; v++ {
					want[i][pv*ci+v] = 1 / float64(ci)
					if den > 0 {
						want[i][pv*ci+v] = float64(c[v]) / float64(den)
					}
				}
			}
		}
		checkFactors(t, core.NewSnapshot(learned, e.seedFactorsLocked(win, learned), 0, time.Time{}, 1), want)
	}
}
