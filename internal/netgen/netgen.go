// Package netgen generates the Bayesian networks used by the experiments.
//
// The paper evaluates on four real networks from the bnlearn repository
// (ALARM, HEPAR II, LINK, MUNIN). Those .bif files are not available in this
// offline build, so netgen synthesizes *structural twins*: random DAGs with
// exactly the published node count, edge count and free-parameter count
// (Σ_i (J_i−1)·K_i) of Table I, with cardinality and in-degree profiles
// matching the published characteristics of each network. Communication cost
// and the approximation guarantees of the tracking algorithms depend only on
// these structural statistics and on the stream, so the twins preserve the
// qualitative behaviour of every experiment (see README, Reproducing the
// paper). All generation is deterministic given the profile's seed.
package netgen

import (
	"fmt"
	"math"
	"sort"

	"distbayes/internal/bn"
)

// Profile describes a synthetic network family.
type Profile struct {
	// Name identifies the profile (e.g. "alarm").
	Name string
	// Nodes, Edges and Params are the exact targets from Table I.
	Nodes, Edges, Params int
	// MaxInDegree caps the number of parents of any node.
	MaxInDegree int
	// Cards is the palette of base cardinalities, sampled uniformly.
	Cards []int
	// MaxCard bounds cardinalities during parameter-count adjustment.
	MaxCard int
	// RootFrac is the approximate fraction of parentless nodes.
	RootFrac float64
	// Seed drives all structure randomness.
	Seed uint64
}

// Profiles for the four Table I networks. The published figures are:
//
//	ALARM     37 nodes   46 edges    509 parameters
//	HEPAR II  70 nodes  123 edges   1453 parameters
//	LINK     724 nodes 1125 edges  14211 parameters
//	MUNIN   1041 nodes 1397 edges  80592 parameters
var (
	Alarm = Profile{
		Name: "alarm", Nodes: 37, Edges: 46, Params: 509,
		MaxInDegree: 4, Cards: []int{2, 2, 3, 3, 4}, MaxCard: 8,
		RootFrac: 0.30, Seed: 0xA1A2,
	}
	HeparII = Profile{
		Name: "hepar2", Nodes: 70, Edges: 123, Params: 1453,
		MaxInDegree: 6, Cards: []int{2, 2, 2, 3, 3, 4}, MaxCard: 8,
		RootFrac: 0.25, Seed: 0x4E9A,
	}
	Link = Profile{
		Name: "link", Nodes: 724, Edges: 1125, Params: 14211,
		MaxInDegree: 3, Cards: []int{2, 2, 2, 3, 4}, MaxCard: 8,
		RootFrac: 0.25, Seed: 0x11CC,
	}
	Munin = Profile{
		Name: "munin", Nodes: 1041, Edges: 1397, Params: 80592,
		MaxInDegree: 3, Cards: []int{3, 4, 5, 6, 7, 8, 10, 12}, MaxCard: 25,
		RootFrac: 0.25, Seed: 0x3141,
	}
)

// Generate builds the network for a profile, matching Nodes and Edges exactly
// and Params exactly (after calibration and leaf adjustment). It returns an
// error if the targets are unreachable with the given palette and caps.
func Generate(p Profile) (*bn.Network, error) {
	if p.Nodes < 2 || p.Edges < 1 || p.Params < 1 {
		return nil, fmt.Errorf("netgen: invalid profile targets %+v", p)
	}
	if p.Edges > maxEdges(p.Nodes, p.MaxInDegree) {
		return nil, fmt.Errorf("netgen: %d edges unreachable with %d nodes and max in-degree %d",
			p.Edges, p.Nodes, p.MaxInDegree)
	}
	rng := bn.NewRNG(p.Seed)

	parents := buildStructure(p, rng)

	// Base cards from the palette, then a global calibration exponent that
	// scales cardinalities until the parameter count brackets the target.
	base := make([]float64, p.Nodes)
	for i := range base {
		base[i] = float64(p.Cards[rng.Intn(len(p.Cards))])
	}
	cards := calibrateCards(p, parents, base)

	// Exact parameter matching by adjusting leaf cardinalities.
	cards, err := adjustLeaves(p, parents, cards, rng)
	if err != nil {
		return nil, err
	}

	vars := make([]bn.Variable, p.Nodes)
	for i := range vars {
		vars[i] = bn.Variable{
			Name:    fmt.Sprintf("%s_%d", p.Name, i),
			Card:    cards[i],
			Parents: parents[i],
		}
	}
	net, err := bn.NewNetwork(vars)
	if err != nil {
		return nil, fmt.Errorf("netgen: %s: %w", p.Name, err)
	}
	if net.NumEdges() != p.Edges {
		return nil, fmt.Errorf("netgen: %s has %d edges, want %d", p.Name, net.NumEdges(), p.Edges)
	}
	if net.NumParams() != p.Params {
		return nil, fmt.Errorf("netgen: %s has %d params, want %d", p.Name, net.NumParams(), p.Params)
	}
	return net, nil
}

func maxEdges(n, dmax int) int {
	e := 0
	for i := 0; i < n; i++ {
		m := i
		if m > dmax {
			m = dmax
		}
		e += m
	}
	return e
}

// buildStructure creates the parent lists of a DAG with exactly p.Edges
// edges: node indices are already a topological order (parents have smaller
// indices). A backbone pass gives most non-root nodes one parent; the
// remaining edges are scattered respecting the in-degree cap.
func buildStructure(p Profile, rng *bn.RNG) [][]int {
	n := p.Nodes
	parents := make([][]int, n)
	hasParent := make([]bool, n)

	// Backbone: node i > 0 gets one parent from [0, i) with probability
	// 1-RootFrac, biased toward recent nodes to create chains (as in the
	// pedigree/medical networks being imitated).
	edgeCount := 0
	for i := 1; i < n && edgeCount < p.Edges; i++ {
		if rng.Float64() < p.RootFrac {
			continue
		}
		lo := 0
		if i > 8 && rng.Float64() < 0.7 {
			lo = i - 8 // local attachment window
		}
		par := lo + rng.Intn(i-lo)
		parents[i] = append(parents[i], par)
		hasParent[i] = true
		edgeCount++
	}

	// Scatter the remaining edges.
	for guard := 0; edgeCount < p.Edges && guard < 100*p.Edges; guard++ {
		i := 1 + rng.Intn(n-1)
		if len(parents[i]) >= p.MaxInDegree || len(parents[i]) >= i {
			continue
		}
		par := rng.Intn(i)
		dup := false
		for _, q := range parents[i] {
			if q == par {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		parents[i] = append(parents[i], par)
		hasParent[i] = true
		edgeCount++
	}
	// Deterministic fill if the random scatter stalled (dense tail).
	for i := 1; i < n && edgeCount < p.Edges; i++ {
		for par := 0; par < i && edgeCount < p.Edges; par++ {
			if len(parents[i]) >= p.MaxInDegree {
				break
			}
			dup := false
			for _, q := range parents[i] {
				if q == par {
					dup = true
					break
				}
			}
			if !dup {
				parents[i] = append(parents[i], par)
				edgeCount++
			}
		}
	}
	for i := range parents {
		sort.Ints(parents[i])
	}
	return parents
}

// paramCount computes Σ (J_i − 1)·K_i for a candidate cardinality vector.
func paramCount(parents [][]int, cards []int) int {
	total := 0
	for i, ps := range parents {
		k := 1
		for _, p := range ps {
			k *= cards[p]
		}
		total += (cards[i] - 1) * k
	}
	return total
}

// calibrateCards searches a global exponent s so that cards round(base^s)
// (clamped to [2, MaxCard]) lands the parameter count just below the target;
// the leaf adjuster then closes the gap exactly.
func calibrateCards(p Profile, parents [][]int, base []float64) []int {
	apply := func(s float64) []int {
		cards := make([]int, len(base))
		for i, b := range base {
			c := int(math.Round(math.Pow(b, s)))
			if c < 2 {
				c = 2
			}
			if c > p.MaxCard {
				c = p.MaxCard
			}
			cards[i] = c
		}
		return cards
	}
	lo, hi := 0.2, 2.5
	// paramCount is monotone non-decreasing in s; 60 bisection steps are
	// plenty for the step function to stabilize.
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if paramCount(parents, apply(mid)) > p.Params {
			hi = mid
		} else {
			lo = mid
		}
	}
	return apply(lo)
}

// adjustLeaves nudges the cardinalities of leaf nodes (no children — their
// cards do not feed any other CPT) until the parameter count matches the
// target exactly: changing leaf i by ±1 changes the count by exactly K_i.
func adjustLeaves(p Profile, parents [][]int, cards []int, rng *bn.RNG) ([]int, error) {
	n := len(cards)
	isLeaf := make([]bool, n)
	for i := range isLeaf {
		isLeaf[i] = true
	}
	for _, ps := range parents {
		for _, q := range ps {
			isLeaf[q] = false
		}
	}
	kOf := func(i int) int {
		k := 1
		for _, q := range parents[i] {
			k *= cards[q]
		}
		return k
	}
	var leaves []int
	for i := range isLeaf {
		if isLeaf[i] {
			leaves = append(leaves, i)
		}
	}
	if len(leaves) == 0 {
		return nil, fmt.Errorf("netgen: %s: no leaves to adjust", p.Name)
	}

	diff := p.Params - paramCount(parents, cards)
	const maxIters = 200000
	for iter := 0; diff != 0 && iter < maxIters; iter++ {
		// Best greedy move: the leaf whose K gets |diff| closest to zero.
		bestLeaf, bestDelta, bestAbs := -1, 0, abs(diff)
		for _, i := range leaves {
			k := kOf(i)
			for _, delta := range [2]int{1, -1} {
				nc := cards[i] + delta
				if nc < 2 || nc > p.MaxCard {
					continue
				}
				nd := abs(diff - delta*k)
				if nd < bestAbs {
					bestLeaf, bestDelta, bestAbs = i, delta, nd
				}
			}
		}
		if bestLeaf < 0 {
			// No improving move: random admissible step to escape.
			i := leaves[rng.Intn(len(leaves))]
			delta := 1
			if rng.Bernoulli(0.5) {
				delta = -1
			}
			nc := cards[i] + delta
			if nc < 2 || nc > p.MaxCard {
				continue
			}
			cards[i] = nc
			diff -= delta * kOf(i)
			continue
		}
		cards[bestLeaf] += bestDelta
		diff -= bestDelta * kOf(bestLeaf)
	}
	if diff != 0 {
		return nil, fmt.Errorf("netgen: %s: could not match %d params (residual %d)", p.Name, p.Params, diff)
	}
	return cards, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
