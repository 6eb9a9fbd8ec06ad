package core

import (
	"fmt"
	"math"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

// smoothRows is the oracle Snapshot.Factor answers to: the step that turned a
// variable's raw rows (J_i = j values per parent configuration) into its
// factor row in place while snapshots stored ratios. pair[pidx*j+v] becomes
// (pair[pidx*j+v]+s)/(par[pidx]+s·j), or 0 where that denominator is not
// positive.
func smoothRows(pair, par []float64, s float64, j int) {
	for pidx, den := range par {
		den += s * float64(j)
		row := pair[pidx*j : (pidx+1)*j]
		for v := range row {
			if den <= 0 {
				row[v] = 0
			} else {
				row[v] = (row[v] + s) / den
			}
		}
	}
}

// factorTables reads every Factor of s into one table per variable, laid out
// like bn.CPT.
func factorTables(s *Snapshot) [][]float64 {
	net := s.Network()
	out := make([][]float64, net.Len())
	for i := range out {
		j := net.Card(i)
		out[i] = make([]float64, j*net.ParentCard(i))
		for c := range out[i] {
			out[i][c] = s.Factor(i, c%j, c/j)
		}
	}
	return out
}

// checkFactors asserts that every Factor of s is want's cell (CPT layout) and
// every table of s.Model() is want normalized, both Float64bits for
// Float64bits.
func checkFactors(t *testing.T, name string, s *Snapshot, want [][]float64) {
	t.Helper()
	for i, tbl := range factorTables(s) {
		for c, got := range tbl {
			if math.Float64bits(got) != math.Float64bits(want[i][c]) {
				t.Fatalf("%s: Factor of variable %d cell %d = %v, oracle %v", name, i, c, got, want[i][c])
			}
		}
	}
	m, err := s.Model()
	if err != nil {
		t.Fatal(err)
	}
	wm, err := bn.NewNormalizedModel(s.Network(), func(i int, tbl []float64) { copy(tbl, want[i]) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		j := s.Network().Card(i)
		for c := range want[i] {
			if got, w := m.CPD(i).P(c%j, c/j), wm.CPD(i).P(c%j, c/j); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: Model table %d cell %d = %v, oracle %v", name, i, c, got, w)
			}
		}
	}
}

// TestFactorDividesLikeSmoothRows holds tracker snapshots, which keep the
// counter estimates and divide on read, to the smoothRows oracle over the
// same raw rows: every Factor and every Model table, on alarm and munin, at
// three smoothings. Every stream leaves HYZ cells in sampling mode (an
// estimate that is not the exact count); munin's also leaves parent
// configurations never seen (a zero parent estimate), which alarm's does not.
func TestFactorDividesLikeSmoothRows(t *testing.T) {
	unseen := 0
	for _, tc := range []struct {
		net    string
		events int
	}{{"alarm", 20000}, {"munin", 12000}} {
		model, err := netgen.ModelByName(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		net := model.Network()
		evs := genEventStream(model, 4, tc.events, 11)
		for _, s := range []float64{0, 0.5, 2} {
			cfg := cfgFor(NonUniform, 2)
			cfg.Eps, cfg.Smoothing = 0.5, s
			tr, err := NewTracker(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr.UpdateEvents(evs)
			snap := tr.AcquireSnapshot()
			want := make([][]float64, net.Len())
			sampling := 0
			for i := range want {
				pair, par := rawRows(tr, i)
				for c, e := range pair {
					if e != float64(tr.pair[i].Exact(c)) {
						sampling++
					}
				}
				for _, d := range par {
					if d == 0 {
						unseen++
					}
				}
				smoothRows(pair, par, s, net.Card(i))
				want[i] = pair
			}
			name := fmt.Sprintf("%s s=%v", tc.net, s)
			checkFactors(t, name, snap, want)
			snap.Release()
			if sampling == 0 {
				t.Errorf("%s: no HYZ cell in sampling mode", name)
			}
		}
	}
	if unseen == 0 {
		t.Error("no parent configuration never seen; the oracle's 0 and s/(s·J) rows went unchecked")
	}
}
