// Package chowliu learns a tree-structured Bayesian network from a sample of
// complete observations using the Chow–Liu algorithm: pairwise empirical
// mutual information defines edge weights, a maximum-weight spanning tree is
// extracted, and the tree is oriented away from a root.
//
// The paper treats structure selection as orthogonal and suggests learning it
// "offline based on a suitable sample of the data" (Section III); this
// package provides that route. It also realizes the degree-one (tree)
// networks of Section V and the McGregor–Vu reference of Section II.
package chowliu

import (
	"fmt"
	"math"

	"distbayes/internal/bn"
)

// Learn estimates a Chow–Liu tree from samples. Each sample is a complete
// assignment; cards[i] is the domain size of variable i. The returned
// network is always a single connected tree rooted at variable 0: pairwise
// independence in the sample only drives an edge's mutual information to
// zero, and Prim's algorithm still attaches every variable through its
// best (possibly zero-weight) edge, so no forest can result.
func Learn(samples [][]int, cards []int) (*bn.Network, error) {
	n := len(cards)
	if n < 1 {
		return nil, fmt.Errorf("chowliu: no variables")
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("chowliu: no samples")
	}
	for i, c := range cards {
		if c < 1 {
			return nil, fmt.Errorf("chowliu: variable %d cardinality %d", i, c)
		}
	}
	for si, s := range samples {
		if len(s) != n {
			return nil, fmt.Errorf("chowliu: sample %d has %d values, want %d", si, len(s), n)
		}
		for i, v := range s {
			if v < 0 || v >= cards[i] {
				return nil, fmt.Errorf("chowliu: sample %d value %d out of range for variable %d", si, v, i)
			}
		}
	}

	mi := PairwiseMI(samples, cards)
	parent := maxSpanningTree(n, mi)

	vars := make([]bn.Variable, n)
	for i := range vars {
		vars[i] = bn.Variable{Name: fmt.Sprintf("cl_%d", i), Card: cards[i]}
		if parent[i] >= 0 {
			vars[i].Parents = []int{parent[i]}
		}
	}
	return bn.NewNetwork(vars)
}

// PairwiseMI computes the empirical mutual information of every variable
// pair; the result is symmetric with zero diagonal. An empty sample slice
// yields the all-zero matrix (no evidence of dependence), not NaNs.
func PairwiseMI(samples [][]int, cards []int) [][]float64 {
	n := len(cards)
	if len(samples) == 0 {
		mi := make([][]float64, n)
		for i := range mi {
			mi[i] = make([]float64, n)
		}
		return mi
	}
	m := float64(len(samples))

	// Marginal counts.
	marg := make([][]float64, n)
	for i := range marg {
		marg[i] = make([]float64, cards[i])
	}
	for _, s := range samples {
		for i, v := range s {
			marg[i][v]++
		}
	}

	mi := make([][]float64, n)
	for i := range mi {
		mi[i] = make([]float64, n)
	}
	joint := make([]float64, 0, 64)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ji, jj := cards[i], cards[j]
			joint = joint[:0]
			for c := 0; c < ji*jj; c++ {
				joint = append(joint, 0)
			}
			for _, s := range samples {
				joint[s[i]*jj+s[j]]++
			}
			v := 0.0
			for vi := 0; vi < ji; vi++ {
				for vj := 0; vj < jj; vj++ {
					c := joint[vi*jj+vj]
					if c == 0 {
						continue
					}
					pxy := c / m
					v += pxy * math.Log(pxy*m*m/(marg[i][vi]*marg[j][vj]))
				}
			}
			if v < 0 { // numerical noise
				v = 0
			}
			mi[i][j], mi[j][i] = v, v
		}
	}
	return mi
}

// maxSpanningTree runs Prim's algorithm on the dense MI matrix, returning
// parent[i] (-1 for the root, variable 0).
func maxSpanningTree(n int, w [][]float64) []int {
	parent := make([]int, n)
	best := make([]float64, n)
	from := make([]int, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
		best[i] = math.Inf(-1)
		from[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = w[0][j]
		from[j] = 0
	}
	for added := 1; added < n; added++ {
		pick, pickW := -1, math.Inf(-1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] > pickW {
				pick, pickW = j, best[j]
			}
		}
		inTree[pick] = true
		parent[pick] = from[pick]
		for j := 0; j < n; j++ {
			if !inTree[j] && w[pick][j] > best[j] {
				best[j] = w[pick][j]
				from[j] = pick
			}
		}
	}
	return parent
}

// SampleFromModel draws count complete observations from a ground-truth
// model — a convenience for the offline-structure workflow.
func SampleFromModel(m *bn.Model, count int, seed uint64) [][]int {
	s := m.NewSampler(seed)
	out := make([][]int, count)
	for i := range out {
		out[i] = append([]int(nil), s.Sample(nil)...)
	}
	return out
}

// UndirectedEdges returns the canonical (min,max) edge set of a network —
// used to compare a learned tree against the generating structure, where
// edge direction is not identifiable from data alone.
func UndirectedEdges(net *bn.Network) map[[2]int]bool {
	edges := map[[2]int]bool{}
	for i := 0; i < net.Len(); i++ {
		for _, p := range net.Parents(i) {
			a, b := p, i
			if a > b {
				a, b = b, a
			}
			edges[[2]int{a, b}] = true
		}
	}
	return edges
}
