package cluster

import (
	"testing"

	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// PairID returns the id of A_i(value, pidx).
func (l *counterLayout) PairID(i, value, pidx int) uint32 {
	return l.pairOff[i] + uint32(pidx*l.net.Card(i)+value)
}

// ParID returns the id of A_i(pidx).
func (l *counterLayout) ParID(i, pidx int) uint32 {
	return l.parOff[i] + uint32(pidx)
}

// TestLayoutSectionsPartition is the property test for counterLayout.sections:
// over several networks and strategies, the sections must cover
// [0, NumCounters()) exactly — contiguous, ascending, no gaps or overlaps —
// and variable i's two sections must be its pair ids and its parent ids, at
// the allocation's EpsA[i] and EpsB[i].
func TestLayoutSectionsPartition(t *testing.T) {
	for _, name := range []string{"alarm", "hepar2", "tree:16:3:7"} {
		netw, err := netgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform} {
			layout, err := newCounterLayout(netw, strat, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			alloc, err := core.Allocate(netw, strat, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			next := uint32(0)
			for si, sec := range layout.sections {
				if sec.lo != next {
					t.Fatalf("%s/%v section %d starts at %d, want %d (gap or overlap)", name, strat, si, sec.lo, next)
				}
				if sec.hi < sec.lo {
					t.Fatalf("%s/%v section %d inverted: [%d,%d)", name, strat, si, sec.lo, sec.hi)
				}
				i, lo, eps := si/2, layout.PairID(si/2, 0, 0), alloc.EpsA[si/2]
				if si%2 == 1 {
					lo, eps = layout.ParID(i, 0), alloc.EpsB[i]
				}
				if sec.lo != lo || sec.eps != eps {
					t.Fatalf("%s/%v section %d = [%d,%d) at eps %v, want variable %d's block from %d at eps %v", name, strat, si, sec.lo, sec.hi, sec.eps, i, lo, eps)
				}
				next = sec.hi
			}
			if next != layout.NumCounters() {
				t.Fatalf("%s/%v sections end at %d, want %d", name, strat, next, layout.NumCounters())
			}
		}
	}
}
