// Package bn implements the Bayesian-network substrate used throughout the
// repository: directed acyclic graphs over categorical random variables,
// stride-indexed conditional probability tables (CPTs), joint probability
// evaluation, forward sampling, and Markov-blanket scoring.
//
// The notation follows the paper: a network has n variables X_1..X_n; J_i is
// the cardinality of dom(X_i) and K_i the cardinality of dom(par(X_i)). A
// parent configuration is addressed by a single integer in [0, K_i) computed
// with mixed-radix strides over the parents in declaration order.
package bn

import (
	"errors"
	"fmt"
)

// Variable describes one categorical node of a Bayesian network.
type Variable struct {
	// Name is a human-readable identifier, unique within a network.
	Name string
	// Card is the domain size J_i; values are 0..Card-1.
	Card int
	// Parents lists the indices of the parent variables, in the order used
	// to index parent configurations.
	Parents []int
}

// Network is the structure (DAG + cardinalities) of a Bayesian network,
// without parameters. It is immutable after construction by NewNetwork.
type Network struct {
	vars []Variable

	// order is a topological order of variable indices (parents first).
	order []int

	// parentCard[i] is K_i, the number of parent configurations of X_i.
	parentCard []int

	// strides[i][p] is the multiplier of parent p's value when computing the
	// parent-configuration index of X_i.
	strides [][]int

	// children[i] lists the variables that have i as a parent.
	children [][]int
}

// ErrCycle is returned by NewNetwork when the parent relation has a cycle.
var ErrCycle = errors.New("bn: parent graph contains a cycle")

// NewNetwork validates vars and computes the derived structure. It returns an
// error if a cardinality is < 1, a parent index is out of range or repeated,
// a variable lists itself as a parent, or the graph is cyclic.
func NewNetwork(vars []Variable) (*Network, error) {
	n := len(vars)
	if n == 0 {
		return nil, errors.New("bn: network needs at least one variable")
	}
	for i, v := range vars {
		if v.Card < 1 {
			return nil, fmt.Errorf("bn: variable %d (%s) has cardinality %d < 1", i, v.Name, v.Card)
		}
		seen := make(map[int]bool, len(v.Parents))
		for _, p := range v.Parents {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("bn: variable %d (%s) has parent index %d out of range [0,%d)", i, v.Name, p, n)
			}
			if p == i {
				return nil, fmt.Errorf("bn: variable %d (%s) lists itself as a parent", i, v.Name)
			}
			if seen[p] {
				return nil, fmt.Errorf("bn: variable %d (%s) lists parent %d twice", i, v.Name, p)
			}
			seen[p] = true
		}
	}

	nw := &Network{
		vars:       append([]Variable(nil), vars...),
		parentCard: make([]int, n),
		strides:    make([][]int, n),
		children:   make([][]int, n),
	}
	// Deep-copy parent slices so callers cannot mutate the network.
	for i := range nw.vars {
		nw.vars[i].Parents = append([]int(nil), vars[i].Parents...)
	}

	for i, v := range nw.vars {
		k := 1
		st := make([]int, len(v.Parents))
		for p := len(v.Parents) - 1; p >= 0; p-- {
			st[p] = k
			k *= nw.vars[v.Parents[p]].Card
		}
		nw.parentCard[i] = k
		nw.strides[i] = st
		for _, p := range v.Parents {
			nw.children[p] = append(nw.children[p], i)
		}
	}

	order, err := topoOrder(nw)
	if err != nil {
		return nil, err
	}
	nw.order = order
	return nw, nil
}

// MustNetwork is NewNetwork that panics on error; intended for generators and
// tests where the structure is known to be valid.
func MustNetwork(vars []Variable) *Network {
	nw, err := NewNetwork(vars)
	if err != nil {
		panic(err)
	}
	return nw
}

func topoOrder(nw *Network) ([]int, error) {
	n := nw.Len()
	indeg := make([]int, n)
	for i := range nw.vars {
		indeg[i] = len(nw.vars[i].Parents)
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, c := range nw.children[u] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Len returns n, the number of variables.
func (nw *Network) Len() int { return len(nw.vars) }

// Var returns the i-th variable.
func (nw *Network) Var(i int) Variable { return nw.vars[i] }

// Card returns J_i, the domain size of variable i.
func (nw *Network) Card(i int) int { return nw.vars[i].Card }

// Parents returns the parent indices of variable i. The returned slice must
// not be modified.
func (nw *Network) Parents(i int) []int { return nw.vars[i].Parents }

// Children returns the child indices of variable i. The returned slice must
// not be modified.
func (nw *Network) Children(i int) []int { return nw.children[i] }

// ParentCard returns K_i, the number of parent configurations of variable i
// (1 for a root).
func (nw *Network) ParentCard(i int) int { return nw.parentCard[i] }

// SameVariables checks that other describes the same variables as nw — names
// and cardinalities, in order. Structure and parameters are deliberately not
// compared: it is the precondition for drifting a stream from one network to
// the other and for serving their snapshots interchangeably (queries resolve
// parent sets against each snapshot's own Network).
func (nw *Network) SameVariables(other *Network) error {
	if other == nil {
		return fmt.Errorf("nil network")
	}
	if nw.Len() != other.Len() {
		return fmt.Errorf("%d variables, want %d", other.Len(), nw.Len())
	}
	for i, v := range nw.vars {
		if o := other.vars[i]; v.Name != o.Name || v.Card != o.Card {
			return fmt.Errorf("variable %d is %s(card %d), want %s(card %d)", i, o.Name, o.Card, v.Name, v.Card)
		}
	}
	return nil
}

// NumEdges returns the number of directed edges (conditional dependencies).
func (nw *Network) NumEdges() int {
	e := 0
	for i := range nw.vars {
		e += len(nw.vars[i].Parents)
	}
	return e
}

// NumParams returns the number of free parameters Σ_i (J_i - 1)·K_i, the
// convention used by the bnlearn repository figures quoted in Table I.
func (nw *Network) NumParams() int {
	p := 0
	for i := range nw.vars {
		p += (nw.vars[i].Card - 1) * nw.parentCard[i]
	}
	return p
}

// NumCells returns the total number of CPT cells Σ_i J_i·K_i, which is the
// number of pair counters A_i(x_i, x_i^par) a tracker maintains.
func (nw *Network) NumCells() int {
	c := 0
	for i := range nw.vars {
		c += nw.vars[i].Card * nw.parentCard[i]
	}
	return c
}

// MaxInDegree returns d, the maximum number of parents of any variable.
func (nw *Network) MaxInDegree() int {
	d := 0
	for i := range nw.vars {
		if len(nw.vars[i].Parents) > d {
			d = len(nw.vars[i].Parents)
		}
	}
	return d
}

// MaxCard returns J, the maximum domain cardinality of any variable.
func (nw *Network) MaxCard() int {
	j := 0
	for i := range nw.vars {
		if nw.vars[i].Card > j {
			j = nw.vars[i].Card
		}
	}
	return j
}

// ParentIndex computes the parent-configuration index of variable i under the
// full assignment x (one value per network variable). For a root it is 0.
func (nw *Network) ParentIndex(i int, x []int) int {
	idx := 0
	ps := nw.vars[i].Parents
	st := nw.strides[i]
	for p, parent := range ps {
		idx += x[parent] * st[p]
	}
	return idx
}

// ParentIndexOf computes the parent-configuration index from the parent
// values themselves (vals[p] is the value of Parents(i)[p]).
func (nw *Network) ParentIndexOf(i int, vals []int) int {
	idx := 0
	st := nw.strides[i]
	for p, v := range vals {
		idx += v * st[p]
	}
	return idx
}

// ParentValues inverts ParentIndexOf: it decodes a parent-configuration
// index into one value per parent of variable i.
func (nw *Network) ParentValues(i, idx int) []int {
	ps := nw.vars[i].Parents
	vals := make([]int, len(ps))
	st := nw.strides[i]
	for p := range ps {
		vals[p] = idx / st[p]
		idx %= st[p]
	}
	return vals
}

// ValidAssignment reports whether x is a full assignment with every value in
// range.
func (nw *Network) ValidAssignment(x []int) bool {
	if len(x) != nw.Len() {
		return false
	}
	for i, v := range x {
		if v < 0 || v >= nw.vars[i].Card {
			return false
		}
	}
	return true
}

// AncestralClosure returns the smallest ancestrally closed set containing the
// given roots (every member's parents are members), as a sorted-by-topo-order
// slice of variable indices. Marginal probabilities of assignments to such
// sets factorize exactly over member CPDs, which is what makes them usable as
// test events on large networks.
func (nw *Network) AncestralClosure(roots []int) []int {
	in := make(map[int]bool)
	var visit func(int)
	visit = func(v int) {
		if in[v] {
			return
		}
		in[v] = true
		for _, p := range nw.vars[v].Parents {
			visit(p)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	out := make([]int, 0, len(in))
	for _, v := range nw.order {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}
