package core

import "distbayes/internal/bn"

// NewOneWayTracker is NewTracker with the live cluster's one-way counter
// (counter.OneWayKind) in place of HYZ in every approximate bank: the
// tracker that reproduces a cluster run. Its SaveState fails, since the kind
// has no state record.
func NewOneWayTracker(net *bn.Network, cfg Config) (*Tracker, error) {
	t, err := NewTracker(net, cfg)
	if err != nil {
		return nil, err
	}
	t.oneWay = true
	for i := range t.pair {
		if t.pair[i], t.par[i], err = t.newBanks(i); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Reseed restarts the generator of the first stripe — every randomized bank's
// on a sequential tracker — at bn.NewRNG(seed).
func (t *Tracker) Reseed(seed uint64) { *t.shards[0].rng = *bn.NewRNG(seed) }

// Estimates returns variable i's raw estimate row: its J_i·K_i pair
// estimates at pidx·J_i+v, then its K_i parent estimates.
func (s *Snapshot) Estimates(i int) []float64 { return s.est[i] }
