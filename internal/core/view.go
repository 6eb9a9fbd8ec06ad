package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"distbayes/internal/bn"
)

// ClassifyPartial predicts argmax_y P[X_target = y | evidence] on a normalized
// model when only a subset of the other variables is observed (the general
// Bayesian classification setting; Snapshot.Classify handles the fully
// observed case much faster). It runs exact variable-elimination inference,
// so it is exponential in the treewidth — intended for moderate networks or
// small unobserved sets.
func ClassifyPartial(m *bn.Model, target int, evidence map[int]int) (int, error) {
	net := m.Network()
	if target < 0 || target >= net.Len() {
		return 0, fmt.Errorf("core: target %d out of range", target)
	}
	if _, ok := evidence[target]; ok {
		return 0, fmt.Errorf("core: target %d appears in evidence", target)
	}
	best, bestP := 0, -1.0
	for y := 0; y < net.Card(target); y++ {
		p, err := m.ConditionalProb(map[int]int{target: y}, evidence)
		if err != nil {
			return 0, err
		}
		if p > bestP {
			best, bestP = y, p
		}
	}
	return best, nil
}

// Snapshot is the one read handle on tracked parameters: an immutable copy
// of the counter estimates behind every CPD of one network, with the version
// of the counter state it was built from. Its rows hold estimates, not
// ratios; Factor is Algorithm 3's ratio A_i(x_i, x_i^par)/A_i(x_i^par),
// divided when it is read, so a rebuild only copies. Every producer —
// Tracker, the cluster coordinator, the coordinator's learned-structure
// overlay — only builds one; every query is answered by its kernel methods
// below, which read Factor.
//
// A Snapshot never changes after it is published, so any number of goroutines
// may read one handle concurrently (the serving layer shares one across every
// in-flight request). Release must be called exactly once per acquisition,
// after that acquirer's last read; the model returned by Model stays valid
// after Release.
type Snapshot struct {
	net *bn.Network
	// est[i] is variable i's row: its J_i·K_i pair estimates A_i(v, pidx) at
	// pidx*J_i+v (laid out like bn.CPT), then its K_i parent estimates
	// A_i(pidx) at J_i·K_i+pidx.
	est [][]float64
	// smoothing is the Laplace pseudo-count s that Factor adds (0 for the
	// cluster's snapshots).
	smoothing float64
	version   uint64
	builtAt   time.Time
	epoch     uint64
	// release, when set, returns one acquisition to the producer (the tracker
	// recycles the rows once the last reader is gone); garbage-collected
	// snapshots leave it nil.
	release func()
	// base, set on a Reissue, is the snapshot whose Model this one returns.
	base *Snapshot

	modelOnce sync.Once
	model     *bn.Model
	modelErr  error
}

// NewSnapshot publishes estimate rows (est[i] holds variable i's J_i·K_i
// pair estimates at pidx*J_i+v, then its K_i parent estimates; owned by the
// snapshot from here on) as a garbage-collected, unsmoothed Snapshot of net.
// version must be non-decreasing across the snapshots of one producer; epoch
// counts the producer's structure changes (0 for a fixed structure).
func NewSnapshot(net *bn.Network, est [][]float64, version uint64, builtAt time.Time, epoch uint64) *Snapshot {
	return &Snapshot{net: net, est: est, version: version, builtAt: builtAt, epoch: epoch}
}

// Factor returns Algorithm 3's estimate of P[X_i = v | parent config pidx]
// from this snapshot's rows: (A_i(v, pidx)+s)/(A_i(pidx)+s·J_i) with the
// snapshot's smoothing s, or 0 where that denominator is not positive (a
// parent configuration with no mass, so a joint query over it is 0).
func (s *Snapshot) Factor(i, v, pidx int) float64 {
	j, row := s.net.Card(i), s.est[i]
	den := row[j*s.net.ParentCard(i)+pidx] + s.smoothing*float64(j)
	if den <= 0 {
		return 0
	}
	return (row[pidx*j+v] + s.smoothing) / den
}

// Version identifies the counter state the snapshot was built from; it is
// monotone non-decreasing across acquisitions from one producer.
func (s *Snapshot) Version() uint64 { return s.version }

// BuiltAt is when the snapshot's rows were read.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// Network returns the structure the factors are parameters of: the tracked
// network, or — from the learned-structure overlay — the tree learned at this
// snapshot's structure epoch.
func (s *Snapshot) Network() *bn.Network { return s.net }

// StructureEpoch counts the structure changes behind the snapshot: 0 for a
// fixed configured structure, bumped at every hot swap of a learned one.
func (s *Snapshot) StructureEpoch() uint64 { return s.epoch }

// Release returns this acquisition to the producer.
func (s *Snapshot) Release() {
	if s.release != nil {
		s.release()
	}
}

// Reissue republishes s's rows under another version and release hook: the
// new handle shares s's rows, network, smoothing, build time and structure
// epoch, its Model is s's (built at most once for both), and its Release
// calls only release (nil: nothing). The rows stay s's, so s must stay
// acquired until the new handle's last read — a release hook that releases s
// does that.
func (s *Snapshot) Reissue(version uint64, release func()) *Snapshot {
	base := s
	if s.base != nil {
		base = s.base
	}
	return &Snapshot{net: s.net, est: s.est, smoothing: s.smoothing, version: version,
		builtAt: s.builtAt, epoch: s.epoch, release: release, base: base}
}

// QueryProb is Algorithm 3: the joint probability of the full assignment x,
// Π_i Factor(i, x_i, x_i^par), multiplied from 1.0 in ascending variable
// order (the order is part of the contract — every answer from one snapshot
// is bit-equal). A zero factor (an unseen parent configuration without
// smoothing) makes the product 0. The query kernels call Factor on the
// concrete type, so it inlines into their loops.
func (s *Snapshot) QueryProb(x []int) float64 {
	p := 1.0
	for i := 0; i < s.net.Len(); i++ {
		p *= s.Factor(i, x[i], s.net.ParentIndex(i, x))
	}
	return p
}

// QuerySubsetProb is the marginal probability of x restricted to an
// ancestrally closed variable set (see bn.Network.AncestralClosure), which
// factorizes exactly over the member CPDs; factors multiply in set order.
func (s *Snapshot) QuerySubsetProb(set, x []int) float64 {
	p := 1.0
	for _, i := range set {
		p *= s.Factor(i, x[i], s.net.ParentIndex(i, x))
	}
	return p
}

// Classify returns argmax_y P̃[X_target = y | x_{-target}] (the approximate
// Bayesian classification of Definition 4). Only the factors in the target's
// Markov blanket vary with y — its own and its children's — so only those are
// scanned, as a sum of logs. Ties break toward the smaller value. x[target]
// is used as scratch and restored before returning, so concurrent callers
// must each pass their own x.
func (s *Snapshot) Classify(target int, x []int) int {
	saved := x[target]
	defer func() { x[target] = saved }()
	best, bestScore := 0, math.Inf(-1)
	for y := 0; y < s.net.Card(target); y++ {
		x[target] = y
		score := logOrNegInf(s.Factor(target, y, s.net.ParentIndex(target, x)))
		for _, c := range s.net.Children(target) {
			score += logOrNegInf(s.Factor(c, x[c], s.net.ParentIndex(c, x)))
		}
		if score > bestScore {
			best, bestScore = y, score
		}
	}
	return best
}

func logOrNegInf(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}

// Model returns the snapshot's factors normalized into a bn.Model (tracked
// ratios need not sum to exactly 1 under approximation; rows whose parent
// configuration has no mass become uniform). It is built at most once per
// snapshot and shared by every caller; treat it as read-only.
func (s *Snapshot) Model() (*bn.Model, error) {
	if s.base != nil {
		return s.base.Model()
	}
	s.modelOnce.Do(func() {
		s.model, s.modelErr = bn.NewNormalizedModel(s.net, func(i int, tbl []float64) {
			j := s.net.Card(i)
			for c := range tbl {
				tbl[c] = s.Factor(i, c%j, c/j)
			}
		})
	})
	return s.model, s.modelErr
}

// InferMarginal answers an arbitrary marginal query P[assign] by exact
// variable-elimination inference on Model.
func (s *Snapshot) InferMarginal(assign map[int]int) (float64, error) {
	m, err := s.Model()
	if err != nil {
		return 0, err
	}
	return m.MarginalProb(assign)
}

// ClassifyPartial predicts the target from partial evidence by exact inference
// on Model (see the function).
func (s *Snapshot) ClassifyPartial(target int, evidence map[int]int) (int, error) {
	m, err := s.Model()
	if err != nil {
		return 0, err
	}
	return ClassifyPartial(m, target, evidence)
}
