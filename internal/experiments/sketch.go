package experiments

import (
	"fmt"
	"math"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

func init() {
	registry["ablation-sketch"] = runAblationSketch
}

// runAblationSketch contrasts the paper's communication-efficient tracking
// with the memory-efficient sketch line of related work (Kveton et al.,
// discussed in Section II): a CountMin-backed estimator of the same CPDs.
// The sketch is a centralized method — every event reaches it — so its
// "messages" equal the exact algorithm's; what it saves is memory cells.
func runAblationSketch(s *Session) ([]*Table, error) {
	p := s.p
	m, err := netgen.ModelByName("munin") // the high-cardinality network
	if err != nil {
		return nil, err
	}
	net := m.Network()

	queries, err := stream.GenQueries(m, stream.QueryOptions{
		Count: p.Queries, MinProb: p.MinProb, Seed: p.Seed + 3,
	})
	if err != nil {
		return nil, err
	}

	// Tracker (NONUNIFORM) for the communication side.
	tr, err := core.NewTracker(net, core.Config{
		Strategy: core.NonUniform, Eps: p.Eps, Delta: p.Delta, Sites: p.Sites, Seed: p.Seed,
	})
	if err != nil {
		return nil, err
	}
	// Sketches at two memory budgets.
	skSmall, err := newSketchEstimator(net, 64, 3, p.Seed)
	if err != nil {
		return nil, err
	}
	skLarge, err := newSketchEstimator(net, 512, 4, p.Seed)
	if err != nil {
		return nil, err
	}

	training := stream.NewTraining(m, stream.NewUniformAssigner(p.Sites, p.Seed+9), p.Seed+11)
	for e := 0; e < p.Events; e++ {
		site, x := training.Next()
		tr.Update(site, x)
		skSmall.Update(x)
		skLarge.Update(x)
	}

	exactCells := net.NumCells()
	for i := 0; i < net.Len(); i++ {
		exactCells += net.ParentCard(i)
	}
	t := &Table{
		ID:     "ablation-sketch",
		Title:  "Related work: CountMin CPD sketch (memory axis) vs NONUNIFORM tracking (communication axis), MUNIN",
		Header: []string{"method", "m", "mean-err-to-truth", "memory-cells", "messages"},
		Rows: [][]string{
			{"nonuniform-tracker", fmtInt(int64(p.Events)), fmtF(meanErrToTruth(queries, tr.QuerySubsetProb)),
				fmtInt(int64(exactCells)), fmtF(float64(tr.Messages().Total()))},
			{"sketch-64x3", fmtInt(int64(p.Events)), fmtF(meanErrToTruth(queries, skSmall.QuerySubsetProb)),
				fmtInt(int64(skSmall.MemoryCells())), "centralized (=2n·m)"},
			{"sketch-512x4", fmtInt(int64(p.Events)), fmtF(meanErrToTruth(queries, skLarge.QuerySubsetProb)),
				fmtInt(int64(skLarge.MemoryCells())), "centralized (=2n·m)"},
		},
		Notes: []string{
			"the sketch compresses memory but still requires centralizing every event;",
			"the tracker keeps exact-size tables but cuts communication — orthogonal trade-offs (Section II)",
		},
	}
	return []*Table{t}, nil
}

// The rest of this file is the CountMin-sketch-backed estimator of Bayesian-
// network parameters the ablation measures, after the "graphical model
// sketch" line of work (Kveton et al., ECML-PKDD 2016) that the paper
// discusses as related work (Section II). Where the paper's algorithms spend
// *communication* to track every counter, the sketch spends *memory*: all
// pair counters of a variable share one small CountMin table, so the space is
// O(width·depth) per variable regardless of J_i·K_i, at the price of an
// additive overcount bias. It is a centralized-memory baseline, not a
// communication protocol.

// countMin is a conservative-update CountMin sketch over uint64 keys.
type countMin struct {
	width int
	depth int
	rows  [][]uint64
	salts []uint64
	total int64
}

// newCountMin creates a sketch with the given width (counters per row) and
// depth (independent rows). Standard guarantee: overcount ≤ e·N/width with
// probability 1 - e^{-depth}.
func newCountMin(width, depth int, seed uint64) (*countMin, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("sketch: invalid shape %dx%d", depth, width)
	}
	cm := &countMin{width: width, depth: depth}
	rng := bn.NewRNG(seed)
	cm.rows = make([][]uint64, depth)
	cm.salts = make([]uint64, depth)
	for d := range cm.rows {
		cm.rows[d] = make([]uint64, width)
		cm.salts[d] = rng.Uint64() | 1
	}
	return cm, nil
}

// hash mixes the key with a per-row salt (splitmix-style finalizer).
func (cm *countMin) hash(d int, key uint64) int {
	x := key ^ cm.salts[d]
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(cm.width))
}

// Add increments the key's count using conservative update (only the
// minimal cells grow), which tightens the overcount bias.
func (cm *countMin) Add(key uint64) {
	cm.total++
	est := cm.Count(key)
	for d := 0; d < cm.depth; d++ {
		c := &cm.rows[d][cm.hash(d, key)]
		if *c < est+1 {
			*c = est + 1
		}
	}
}

// Count returns the estimated count of key (an overestimate in expectation).
func (cm *countMin) Count(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for d := 0; d < cm.depth; d++ {
		if c := cm.rows[d][cm.hash(d, key)]; c < min {
			min = c
		}
	}
	return min
}

// Total returns the number of Add calls.
func (cm *countMin) Total() int64 { return cm.total }

// MemoryCells returns the number of uint64 cells the sketch holds.
func (cm *countMin) MemoryCells() int { return cm.width * cm.depth }

// sketchTable abstracts the per-variable counting structure: a dense exact
// array for small domains, a CountMin sketch for large ones.
type sketchTable interface {
	Add(key uint64)
	Count(key uint64) uint64
	MemoryCells() int
}

// denseTable is exact counting for tables that fit.
type denseTable struct{ counts []uint64 }

func (d *denseTable) Add(key uint64)          { d.counts[key]++ }
func (d *denseTable) Count(key uint64) uint64 { return d.counts[key] }
func (d *denseTable) MemoryCells() int        { return len(d.counts) }

// sketchEstimator tracks the CPDs of a network with one pair table and one
// parent table per variable.
type sketchEstimator struct {
	net   *bn.Network
	pair  []sketchTable
	par   []sketchTable
	cells int
}

// newSketchEstimator chooses per variable between a dense exact table and a
// width×depth CountMin sketch: the sketch is used only when it is smaller
// than the exact table (the Kveton et al. setting — compress high-
// cardinality variables, count small ones exactly).
func newSketchEstimator(net *bn.Network, width, depth int, seed uint64) (*sketchEstimator, error) {
	if width < 1 || depth < 1 {
		return nil, fmt.Errorf("sketch: invalid shape %dx%d", depth, width)
	}
	e := &sketchEstimator{net: net}
	mk := func(size int, seed uint64) (sketchTable, error) {
		if size <= width*depth {
			return &denseTable{counts: make([]uint64, size)}, nil
		}
		return newCountMin(width, depth, seed)
	}
	for i := 0; i < net.Len(); i++ {
		tPair, err := mk(net.Card(i)*net.ParentCard(i), seed+uint64(2*i))
		if err != nil {
			return nil, err
		}
		tPar, err := mk(net.ParentCard(i), seed+uint64(2*i+1))
		if err != nil {
			return nil, err
		}
		e.pair = append(e.pair, tPair)
		e.par = append(e.par, tPar)
		e.cells += tPair.MemoryCells() + tPar.MemoryCells()
	}
	return e, nil
}

// Update absorbs one observation.
func (e *sketchEstimator) Update(x []int) {
	for i := 0; i < e.net.Len(); i++ {
		pidx := e.net.ParentIndex(i, x)
		e.pair[i].Add(uint64(pidx)*uint64(e.net.Card(i)) + uint64(x[i]))
		e.par[i].Add(uint64(pidx))
	}
}

// CPD estimates P[X_i = v | parent config pidx] from the sketches, clamped
// to [0, 1] (overcounts can push the raw ratio above 1). A parent
// configuration with no observed mass falls back to the uniform
// 1/Card(i) — the learned-structure overlay's zero-row handling — so
// QuerySubsetProb degrades to an uninformative factor on unseen parent
// configs instead of multiplying the whole product to a hard 0, matching
// the tracker's smoothed estimates in spirit.
func (e *sketchEstimator) CPD(i, v, pidx int) float64 {
	den := e.par[i].Count(uint64(pidx))
	if den == 0 {
		return 1 / float64(e.net.Card(i))
	}
	num := e.pair[i].Count(uint64(pidx)*uint64(e.net.Card(i)) + uint64(v))
	p := float64(num) / float64(den)
	if p > 1 {
		return 1
	}
	return p
}

// QuerySubsetProb mirrors core.Tracker.QuerySubsetProb on the sketched
// parameters.
func (e *sketchEstimator) QuerySubsetProb(set []int, x []int) float64 {
	p := 1.0
	for _, i := range set {
		p *= e.CPD(i, x[i], e.net.ParentIndex(i, x))
	}
	return p
}

// MemoryCells returns the total number of sketch cells across variables —
// the space the method trades against the exact table size (NumCells of the
// network).
func (e *sketchEstimator) MemoryCells() int { return e.cells }
