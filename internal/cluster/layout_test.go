package cluster

import (
	"testing"

	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// TestLayoutSectionsPartition is the property test for Layout.Sections: over
// several networks and strategies, the sections must cover
// [0, NumCounters()) exactly — contiguous, ascending, no gaps or overlaps —
// and each section's eps must equal Layout.Eps for every id in it.
func TestLayoutSectionsPartition(t *testing.T) {
	for _, name := range []string{"alarm", "hepar2", "tree:16:3:7"} {
		netw, err := netgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform} {
			layout, err := NewLayout(netw, strat, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			next := uint32(0)
			for si, sec := range layout.Sections() {
				if sec.Lo != next {
					t.Fatalf("%s/%v section %d starts at %d, want %d (gap or overlap)", name, strat, si, sec.Lo, next)
				}
				if sec.Hi < sec.Lo {
					t.Fatalf("%s/%v section %d inverted: [%d,%d)", name, strat, si, sec.Lo, sec.Hi)
				}
				for id := sec.Lo; id < sec.Hi; id++ {
					if layout.Eps(id) != sec.Eps {
						t.Fatalf("%s/%v id %d: section eps %v, layout eps %v", name, strat, id, sec.Eps, layout.Eps(id))
					}
				}
				next = sec.Hi
			}
			if next != layout.NumCounters() {
				t.Fatalf("%s/%v sections end at %d, want %d", name, strat, next, layout.NumCounters())
			}
		}
	}
}
