package chowliu

import (
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

// strongChainModel builds a chain X0 -> X1 -> ... -> X{n-1} of binary
// variables with strong dependence (95% copy), so the Chow-Liu tree should
// recover exactly the chain's undirected edges.
func strongChainModel(t *testing.T, n int) *bn.Model {
	t.Helper()
	vars := make([]bn.Variable, n)
	for i := range vars {
		vars[i] = bn.Variable{Name: "c", Card: 2}
		if i > 0 {
			vars[i].Parents = []int{i - 1}
		}
	}
	nw := bn.MustNetwork(vars)
	cpds := make([]*bn.CPT, n)
	var err error
	cpds[0], err = bn.NewCPT(2, 1, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		cpds[i], err = bn.NewCPT(2, 2, []float64{0.95, 0.05, 0.05, 0.95})
		if err != nil {
			t.Fatal(err)
		}
	}
	return bn.MustModel(nw, cpds)
}

func TestLearnValidation(t *testing.T) {
	if _, err := Learn(nil, []int{2}); err == nil {
		t.Error("no samples accepted")
	}
	if _, err := Learn([][]int{{0}}, nil); err == nil {
		t.Error("no variables accepted")
	}
	if _, err := Learn([][]int{{0, 1}}, []int{2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Learn([][]int{{5}}, []int{2}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := Learn([][]int{{0}}, []int{0}); err == nil {
		t.Error("zero cardinality accepted")
	}
}

func TestLearnRecoversChain(t *testing.T) {
	m := strongChainModel(t, 8)
	samples := SampleFromModel(m, 20000, 3)
	cards := make([]int, 8)
	for i := range cards {
		cards[i] = 2
	}
	learned, err := Learn(samples, cards)
	if err != nil {
		t.Fatal(err)
	}
	want := UndirectedEdges(m.Network())
	got := UndirectedEdges(learned)
	if len(got) != len(want) {
		t.Fatalf("learned %d edges, want %d", len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			t.Errorf("missing edge %v", e)
		}
	}
	// Tree shape invariants.
	if learned.NumEdges() != 7 {
		t.Errorf("edges = %d, want n-1", learned.NumEdges())
	}
	if learned.MaxInDegree() > 1 {
		t.Errorf("max in-degree = %d, want <= 1", learned.MaxInDegree())
	}
}

func TestLearnRecoversRandomTree(t *testing.T) {
	// A random tree with strong CPDs over 3-valued variables.
	net, err := netgen.Tree(12, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cpds := make([]*bn.CPT, net.Len())
	rng := bn.NewRNG(4)
	for i := range cpds {
		j, k := net.Card(i), net.ParentCard(i)
		tbl := make([]float64, j*k)
		for pidx := 0; pidx < k; pidx++ {
			row := tbl[pidx*j : (pidx+1)*j]
			// Strongly peaked at (pidx+offset) mod j to make edges learnable.
			peak := (pidx + 1) % j
			for v := range row {
				if v == peak {
					row[v] = 0.85
				} else {
					row[v] = 0.15 / float64(j-1)
				}
			}
			_ = rng
		}
		var err error
		cpds[i], err = bn.NewCPT(j, k, tbl)
		if err != nil {
			t.Fatal(err)
		}
	}
	m := bn.MustModel(net, cpds)
	samples := SampleFromModel(m, 30000, 11)
	cards := make([]int, net.Len())
	for i := range cards {
		cards[i] = net.Card(i)
	}
	learned, err := Learn(samples, cards)
	if err != nil {
		t.Fatal(err)
	}
	want := UndirectedEdges(net)
	got := UndirectedEdges(learned)
	match := 0
	for e := range want {
		if got[e] {
			match++
		}
	}
	if match < len(want)-1 {
		t.Errorf("recovered %d/%d edges", match, len(want))
	}
}

func TestPairwiseMIProperties(t *testing.T) {
	m := strongChainModel(t, 4)
	samples := SampleFromModel(m, 10000, 5)
	mi := PairwiseMI(samples, []int{2, 2, 2, 2})
	for i := 0; i < 4; i++ {
		if mi[i][i] != 0 {
			t.Errorf("diagonal MI[%d][%d] = %v", i, i, mi[i][i])
		}
		for j := 0; j < 4; j++ {
			if mi[i][j] != mi[j][i] {
				t.Errorf("MI not symmetric at (%d,%d)", i, j)
			}
			if mi[i][j] < 0 {
				t.Errorf("negative MI %v", mi[i][j])
			}
		}
	}
	// Adjacent pairs carry more information than distant ones on a chain.
	if !(mi[0][1] > mi[0][3]) {
		t.Errorf("MI(0,1)=%v should exceed MI(0,3)=%v", mi[0][1], mi[0][3])
	}
}

func TestLearnSingleVariable(t *testing.T) {
	learned, err := Learn([][]int{{0}, {1}, {0}}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if learned.Len() != 1 || learned.NumEdges() != 0 {
		t.Errorf("single-variable tree: %d nodes %d edges", learned.Len(), learned.NumEdges())
	}
}
