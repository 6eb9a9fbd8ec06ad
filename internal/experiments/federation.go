package experiments

import (
	"fmt"
	"time"

	"distbayes/internal/cluster"
	"distbayes/internal/core"
)

func init() {
	registry["federation"] = runFederation
}

// federationBranching is the relay fan-in of the tree topology rows: each
// relay fronts this many sites and folds their frames into one coalesced
// upstream frame per cadence.
const federationBranching = 4

// runFederation compares the aggregation tree against the flat cluster on
// the same stream: a depth-2 tree of relays folding site frames before the
// root. Report decisions are per-site deterministic and the relay fold is an
// idempotent max-merge of per-site monotone vectors, so the tree must track
// the flat run bit-identically: the divergence column is an exactness check
// like runChurn's, expected to be exactly 0 and dwarfed by the paper's ε·m
// slack (the deviation each counter is allowed against the exact count, which
// the flat protocol itself already spends). The frame columns show what the
// tree saves at the root at that equal accuracy.
func runFederation(s *Session) ([]*Table, error) {
	p := s.p
	t := &Table{
		ID: "federation", Title: "Hierarchical federation: aggregation tree vs flat (live TCP)",
		Header: []string{"topology", "sites", "m", "root-frames", "frames/event", "site-frames/root-frame", "max-divergence-vs-flat", "eps*m-slack"},
		Notes: []string{
			"relay folding is an idempotent max-merge of monotone per-site vectors: any tree depth is exact, divergence must be 0",
			fmt.Sprintf("eps*m-slack is max_i eps_i*m, the per-counter deviation the paper's protocol may spend vs the exact count; topology adds none of it (tree branching %d)", federationBranching),
		},
	}
	cfg := clusterBase(p)
	cfg.Strategy = core.NonUniform
	cfg.SiteBatchEvents = 64
	flat, coFlat, err := cluster.RunLocal(cfg)
	if err != nil {
		return nil, fmt.Errorf("federation flat run: %w", err)
	}
	layout, err := cluster.NewLayout(coFlat.Network(), cfg.Strategy, p.Eps)
	if err != nil {
		return nil, err
	}
	slack := 0.0
	for id := uint32(0); id < layout.NumCounters(); id++ {
		slack = max(slack, layout.Eps(id)*float64(p.Events))
	}
	row := func(name string, rootFrames, siteFrames, events int64, div float64) {
		t.Rows = append(t.Rows, []string{
			name, fmtInt(int64(p.Sites)), fmtInt(int64(p.Events)),
			fmtInt(rootFrames),
			fmtF(float64(rootFrames) / float64(events)),
			fmtF(float64(siteFrames) / float64(rootFrames)),
			fmtF(div),
			fmtF(slack),
		})
	}
	row("flat", flat.Stats.Frames, flat.Stats.Frames, flat.Stats.Events, 0)

	tree, coTree, relays, err := cluster.RunLocalTree(cfg, federationBranching, 50*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("federation tree run: %w", err)
	}
	var down int64
	for _, r := range relays {
		down += r.DownFrames.Load()
	}
	row(fmt.Sprintf("tree-b%d", federationBranching), tree.Stats.Frames, down, tree.Stats.Events,
		maxDivergence(layout.NumCounters(), coTree.Estimate, coFlat.Estimate))
	return []*Table{t}, nil
}
