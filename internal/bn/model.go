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

// LogJointProb returns ln P[X = x]; it is -Inf if any factor is zero.
func (m *Model) LogJointProb(x []int) float64 {
	lp := 0.0
	for i := 0; i < m.net.Len(); i++ {
		lp += math.Log(m.cpds[i].P(x[i], m.net.ParentIndex(i, x)))
	}
	return lp
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
type Sampler struct {
	m   *Model
	rng *RNG
}

// NewSampler creates a sampler with the given seed.
func (m *Model) NewSampler(seed uint64) *Sampler {
	return &Sampler{m: m, rng: NewRNG(seed)}
}

// Sample fills dst (length n) with one assignment drawn from the model and
// returns it; if dst is nil a new slice is allocated.
func (s *Sampler) Sample(dst []int) []int {
	n := s.m.net.Len()
	if dst == nil {
		dst = make([]int, n)
	}
	for _, i := range s.m.net.order {
		pidx := s.m.net.ParentIndex(i, dst)
		row := s.m.cpds[i].Row(pidx)
		u := s.rng.Float64()
		acc := 0.0
		v := len(row) - 1 // fall through to the last value on rounding
		for j, pj := range row {
			acc += pj
			if u < acc {
				v = j
				break
			}
		}
		dst[i] = v
	}
	return dst
}
