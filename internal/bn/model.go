package bn

import (
	"fmt"
	"math"
)

// CPT holds the conditional probability table of one variable: a row per
// parent configuration, J_i probabilities per row, stored flat as
// table[pidx*card + value].
type CPT struct {
	card  int
	kcard int
	table []float64
}

// NewCPT builds a CPT for a variable of cardinality card with kcard parent
// configurations from a flat table of length card*kcard. Each row must sum to
// 1 within a small tolerance.
func NewCPT(card, kcard int, table []float64) (*CPT, error) {
	if card < 1 || kcard < 1 {
		return nil, fmt.Errorf("bn: invalid CPT shape %dx%d", kcard, card)
	}
	if len(table) != card*kcard {
		return nil, fmt.Errorf("bn: CPT table length %d, want %d", len(table), card*kcard)
	}
	for k := 0; k < kcard; k++ {
		sum := 0.0
		for j := 0; j < card; j++ {
			p := table[k*card+j]
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("bn: CPT row %d has invalid probability %v", k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("bn: CPT row %d sums to %v, want 1", k, sum)
		}
	}
	return &CPT{card: card, kcard: kcard, table: append([]float64(nil), table...)}, nil
}

// Card returns the variable cardinality (row width).
func (c *CPT) Card() int { return c.card }

// ParentCard returns the number of parent configurations (rows).
func (c *CPT) ParentCard() int { return c.kcard }

// P returns P[X = value | parent config pidx].
func (c *CPT) P(value, pidx int) float64 { return c.table[pidx*c.card+value] }

// Row returns the probability row for parent configuration pidx. The returned
// slice must not be modified.
func (c *CPT) Row(pidx int) []float64 { return c.table[pidx*c.card : (pidx+1)*c.card] }

// MinProb returns the smallest entry of the table (the λ of Lemma 3).
func (c *CPT) MinProb() float64 {
	m := math.Inf(1)
	for _, p := range c.table {
		if p < m {
			m = p
		}
	}
	return m
}

// Model is a Bayesian network with parameters: the ground truth used to
// generate training data and to score learned approximations.
type Model struct {
	net  *Network
	cpds []*CPT
}

// NewModel pairs a network with one CPT per variable, validating shapes.
func NewModel(net *Network, cpds []*CPT) (*Model, error) {
	if len(cpds) != net.Len() {
		return nil, fmt.Errorf("bn: %d CPTs for %d variables", len(cpds), net.Len())
	}
	for i, c := range cpds {
		if c == nil {
			return nil, fmt.Errorf("bn: nil CPT for variable %d", i)
		}
		if c.card != net.Card(i) || c.kcard != net.ParentCard(i) {
			return nil, fmt.Errorf("bn: CPT %d shape %dx%d, want %dx%d",
				i, c.kcard, c.card, net.ParentCard(i), net.Card(i))
		}
	}
	return &Model{net: net, cpds: cpds}, nil
}

// NewNormalizedModel builds a Model from raw per-variable weights: fill
// populates variable i's flat parent-major table (tbl[pidx*card + v], length
// card·kcard) with raw weights — tracked counts, estimates or ratios — and
// the constructor clamps negatives to zero and normalizes each parent
// column, substituting a uniform column when one has no mass. It is the one
// estimate-to-model conversion shared by the in-process tracker and the
// cluster coordinator, so the two serving paths cannot drift apart.
func NewNormalizedModel(net *Network, fill func(i int, tbl []float64)) (*Model, error) {
	cpds := make([]*CPT, net.Len())
	for i := 0; i < net.Len(); i++ {
		j, k := net.Card(i), net.ParentCard(i)
		tbl := make([]float64, j*k)
		fill(i, tbl)
		for pidx := 0; pidx < k; pidx++ {
			sum := 0.0
			for v := 0; v < j; v++ {
				if tbl[pidx*j+v] < 0 {
					tbl[pidx*j+v] = 0
				}
				sum += tbl[pidx*j+v]
			}
			if sum <= 0 {
				for v := 0; v < j; v++ {
					tbl[pidx*j+v] = 1 / float64(j)
				}
			} else {
				for v := 0; v < j; v++ {
					tbl[pidx*j+v] /= sum
				}
			}
		}
		var err error
		cpds[i], err = NewCPT(j, k, tbl)
		if err != nil {
			return nil, fmt.Errorf("bn: normalized CPD %d: %w", i, err)
		}
	}
	return NewModel(net, cpds)
}

// MustModel is NewModel that panics on error.
func MustModel(net *Network, cpds []*CPT) *Model {
	m, err := NewModel(net, cpds)
	if err != nil {
		panic(err)
	}
	return m
}

// Network returns the underlying structure.
func (m *Model) Network() *Network { return m.net }

// CPD returns the CPT of variable i.
func (m *Model) CPD(i int) *CPT { return m.cpds[i] }

// JointProb returns P[X = x] = Π_i P[x_i | x_i^par] (equation 1).
func (m *Model) JointProb(x []int) float64 {
	p := 1.0
	for i := 0; i < m.net.Len(); i++ {
		p *= m.cpds[i].P(x[i], m.net.ParentIndex(i, x))
	}
	return p
}

// SubsetProb returns the marginal probability of the assignment x restricted
// to the ancestrally closed set of variables `set` (as produced by
// Network.AncestralClosure). For such sets the marginal factorizes exactly:
// P[set] = Π_{i∈set} P[x_i | x_i^par]. x must still be a full-length slice;
// only positions in set (and their parents, which set contains) are read.
func (m *Model) SubsetProb(set []int, x []int) float64 {
	p := 1.0
	for _, i := range set {
		p *= m.cpds[i].P(x[i], m.net.ParentIndex(i, x))
	}
	return p
}

// Sampler draws full assignments from the model by forward sampling in
// topological order. It is not safe for concurrent use.
//
// Bit-identity contract: a Sampler makes the draws of the historical
// per-variable loop (one rng.Float64 per variable in topological order, the
// first value whose running sum acc += p exceeds u, the last value when none
// does) and returns the same values; model_test.go keeps that loop as the
// oracle. NewSampler compiles the model into sampler-owned flat tables —
// freed with the sampler, never cached on the Model — so one event is one
// pass over three arrays.
type Sampler struct {
	rng *RNG
	// vars is the compiled model, one entry per variable in topological order.
	vars []samplerVar
	// pars holds every variable's (parent, stride) pairs, CSR-indexed by
	// samplerVar.parLo/parHi.
	pars []samplerParent
	// cum holds every CPT row as running sums, built with the oracle's
	// left-to-right acc += p so each comparison sees the same doubles.
	cum []float64
	// pidx[i] is variable i's parent-configuration index under the latest
	// Sample: the by-product ParentIndices hands out.
	pidx []int
}

type samplerVar struct {
	vari, card, parLo, parHi int32
	row                      int // offset of the variable's table in cum
}

type samplerParent struct{ vari, stride int32 }

// NewSampler creates a sampler with the given seed.
func (m *Model) NewSampler(seed uint64) *Sampler {
	nw := m.net
	s := &Sampler{
		rng:  NewRNG(seed),
		vars: make([]samplerVar, 0, nw.Len()),
		pars: make([]samplerParent, 0, nw.NumEdges()),
		cum:  make([]float64, 0, nw.NumCells()),
		pidx: make([]int, nw.Len()),
	}
	for _, i := range nw.order {
		s.vars = append(s.vars, samplerVar{vari: int32(i), card: int32(nw.Card(i)),
			parLo: int32(len(s.pars)), parHi: int32(len(s.pars) + len(nw.vars[i].Parents)), row: len(s.cum)})
		for p, parent := range nw.vars[i].Parents {
			s.pars = append(s.pars, samplerParent{int32(parent), int32(nw.strides[i][p])})
		}
		for k := 0; k < nw.parentCard[i]; k++ {
			acc := 0.0
			for _, p := range m.cpds[i].Row(k) {
				acc += p
				s.cum = append(s.cum, acc)
			}
		}
	}
	return s
}

// drawCum is the one row draw: the count of running sums u has reached among
// all but the last, i.e. the first value whose running sum exceeds u, and the
// last value when none does (even one of probability zero). Running sums of
// non-negative terms never decrease, so the count needs no early exit and
// compiles without a data-dependent branch.
func drawCum(cum []float64, u float64) int {
	v := 0
	for _, c := range cum[:len(cum)-1] {
		if u >= c {
			v++
		}
	}
	return v
}

// parentIndex computes v's parent-configuration index under x.
func (s *Sampler) parentIndex(v *samplerVar, x []int) int {
	pidx := 0
	for _, p := range s.pars[v.parLo:v.parHi] {
		pidx += x[p.vari] * int(p.stride)
	}
	return pidx
}

// draw samples v given its parent configuration.
func (s *Sampler) draw(v *samplerVar, pidx int) int {
	row := v.row + pidx*int(v.card)
	return drawCum(s.cum[row:row+int(v.card)], s.rng.Float64())
}

// Sample fills dst (length n) with one assignment drawn from the model and
// returns it; if dst is nil a new slice is allocated.
func (s *Sampler) Sample(dst []int) []int {
	if dst == nil {
		dst = make([]int, len(s.vars))
	}
	for t := range s.vars {
		v := &s.vars[t]
		pidx := s.parentIndex(v, dst)
		s.pidx[v.vari] = pidx
		dst[v.vari] = s.draw(v, pidx)
	}
	return dst
}

// ParentIndices returns, per variable, Network.ParentIndex of the assignment
// the latest Sample drew. The slice is reused by the next Sample.
func (s *Sampler) ParentIndices() []int { return s.pidx }
