package counter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distbayes/internal/bn"
)

// mergeSpec is a testing/quick-generated Merge workload: a random increment
// stream over a small bank, cut into a random number of delta partitions.
type mergeSpec struct {
	Cells, K, N, Parts int
	Eps                float64
	Seed               uint64
}

func (s mergeSpec) normalize() mergeSpec {
	s.Cells = 1 + abs(s.Cells)%6
	s.K = 1 + abs(s.K)%8
	s.N = 200 + abs(s.N)%8000
	s.Parts = 1 + abs(s.Parts)%7
	epsChoices := []float64{0.05, 0.1, 0.25}
	idx := math.Mod(math.Abs(s.Eps)*1e6, float64(len(epsChoices)))
	if math.IsNaN(idx) {
		idx = 0
	}
	s.Eps = epsChoices[int(idx)]
	return s
}

// TestQuickMergePartitionEquivalence is the Merge partition property: for
// any increment stream and any partition of it into delta buffers, merging
// the parts one after another yields the same exact count in every cell as
// ingesting the whole stream through Inc — increments commute, buffering
// only delays them. For the exact kind (no protocol state) the estimates
// and message tallies must match too.
func TestQuickMergePartitionEquivalence(t *testing.T) {
	for _, tc := range bankKinds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := func(raw mergeSpec) bool {
				s := raw.normalize()
				eps := tc.eps
				if tc.kind != ExactKind {
					eps = s.Eps
				}
				var mInc, mMerge Metrics
				inc, err := NewBank(tc.kind, s.Cells, s.K, eps, 0.25, &mInc, bn.NewRNG(s.Seed))
				if err != nil {
					return false
				}
				merged, err := NewBank(tc.kind, s.Cells, s.K, eps, 0.25, &mMerge, bn.NewRNG(s.Seed))
				if err != nil {
					return false
				}
				// Deal the stream into Parts delta buffers while Inc-ing the
				// reference bank, then merge the parts in order.
				deltas := make([][]int64, s.Parts)
				for p := range deltas {
					deltas[p] = make([]int64, s.Cells*s.K)
				}
				sched := bn.NewRNG(s.Seed ^ 0x5eed)
				for i := 0; i < s.N; i++ {
					cell, site := sched.Intn(s.Cells), sched.Intn(s.K)
					inc.Inc(cell, site)
					deltas[sched.Intn(s.Parts)][cell*s.K+site]++
				}
				for _, d := range deltas {
					merged.Merge(d)
				}
				for c := 0; c < s.Cells; c++ {
					if merged.Exact(c) != inc.Exact(c) {
						return false
					}
					if tc.kind == ExactKind && merged.Estimate(c) != inc.Estimate(c) {
						return false
					}
				}
				if tc.kind == ExactKind && mMerge.Snapshot() != mInc.Snapshot() {
					return false
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(20260729))}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMergeMatchesRunOrderedReplay pins Merge to its documented order: a
// merge applies each (cell, site) run back to back, in ascending cell then
// site order, so Inc-ing the same runs in that order against a twin bank
// sharing the RNG seed must be bit-identical — estimates, exact counts, round
// state and message tallies.
func TestMergeMatchesRunOrderedReplay(t *testing.T) {
	const cells, k = 4, 5
	for _, tc := range bankKinds {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var mRef, mMerge Metrics
			ref, err := NewBank(tc.kind, cells, k, tc.eps, 0.25, &mRef, bn.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			bank, err := NewBank(tc.kind, cells, k, tc.eps, 0.25, &mMerge, bn.NewRNG(11))
			if err != nil {
				t.Fatal(err)
			}
			sched := bn.NewRNG(13)
			for round := 0; round < 40; round++ {
				delta := make([]int64, cells*k)
				for i := 0; i < 400; i++ {
					delta[sched.Intn(cells*k)]++
				}
				// Replay the runs in Merge's documented order on the twin.
				for cell := 0; cell < cells; cell++ {
					for site := 0; site < k; site++ {
						for c := delta[cell*k+site]; c > 0; c-- {
							ref.Inc(cell, site)
						}
					}
				}
				bank.Merge(delta)
				for c := 0; c < cells; c++ {
					if bank.Exact(c) != ref.Exact(c) {
						t.Fatalf("round %d cell %d: exact %d, want %d", round, c, bank.Exact(c), ref.Exact(c))
					}
					if bank.Estimate(c) != ref.Estimate(c) {
						t.Fatalf("round %d cell %d: estimate %v, want %v (Merge diverged from run-ordered replay)",
							round, c, bank.Estimate(c), ref.Estimate(c))
					}
				}
				if mMerge.Snapshot() != mRef.Snapshot() {
					t.Fatalf("round %d: messages %+v, want %+v", round, mMerge.Snapshot(), mRef.Snapshot())
				}
			}
		})
	}
}

// TestMergeLengthPanics: a delta of the wrong shape must panic like a slice
// misuse rather than corrupt counts.
func TestMergeLengthPanics(t *testing.T) {
	var m Metrics
	b, err := NewBank(ExactKind, 3, 4, 0, 0, &m, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("short delta did not panic")
		}
	}()
	b.Merge(make([]int64, 5))
}
