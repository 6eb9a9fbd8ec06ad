package experiments

import (
	"fmt"
	"math"

	"distbayes/internal/cluster"
	"distbayes/internal/core"
)

func init() {
	registry["fig7"] = runFig7
	registry["fig8"] = runFig8
	registry["batching"] = runBatching
	registry["churn"] = runChurn
}

// clusterSweep runs the live TCP cluster for every algorithm and site count
// and returns one row per (network, k, algorithm) with runtime and
// throughput. Figs. 7 and 8 are two views of the same sweep; each runner
// performs its own sweep so they can be invoked independently. The sweep
// runs the sharded coordinator with a mid-run query mix (one probe per
// millisecond against the live snapshot path) so the measured runtime and
// throughput reflect the paper's query-at-any-time serving model, not an
// idle ingest loop; site batching stays off here to keep the per-event
// frame accounting of the paper's transmission model (the batching
// ablation is its own experiment, see runBatching).
func clusterSweep(p Params, networks []string) (map[string]map[int]map[core.Strategy]cluster.Result, error) {
	out := map[string]map[int]map[core.Strategy]cluster.Result{}
	algs := []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform}
	for _, name := range networks {
		out[name] = map[int]map[core.Strategy]cluster.Result{}
		for _, k := range p.SiteList {
			out[name][k] = map[core.Strategy]cluster.Result{}
			for _, st := range algs {
				cfg := cluster.Config{
					NetName:         name,
					CPTSeed:         p.Seed + 0xC0DE,
					Strategy:        st,
					Eps:             p.Eps,
					Delta:           p.Delta,
					Sites:           k,
					Events:          p.Events,
					StreamSeed:      p.Seed + 7,
					Shards:          k,
					LiveQueryMicros: 1000,
				}
				res, co, err := cluster.RunLocal(cfg)
				if err != nil {
					return nil, fmt.Errorf("cluster sweep %s k=%d %v: %w", name, k, st, err)
				}
				_ = co
				out[name][k][st] = res
			}
		}
	}
	return out, nil
}

// batchWindows are the site-side batching cadences of the batching
// ablation: 0 is the per-event baseline (one frame per triggering event, a
// window of one), the rest are coalescing windows in events.
var batchWindows = []int{0, 16, 64, 256}

// runBatching is the communication-batching ablation: the same stream, k
// sites and budget, swept over site-side batching windows. Report decisions
// are per-site deterministic, so every row tracks the identical model —
// the frames column isolates the transport cost, the paper's
// message-efficiency lever, at equal accuracy. Runs with the sharded
// coordinator and the mid-run query mix live, like clusterSweep.
func runBatching(p Params) ([]*Table, error) {
	t := &Table{
		ID: "batching", Title: "Site delta-batching ablation: frames vs window (equal accuracy)",
		Header: []string{"network", "sites", "m", "window", "frames", "frames/event", "updates", "live-queries", "throughput"},
		Notes: []string{
			"window 0 = per-event (one frame per triggering event); windows > 0 coalesce a window's reports into one frame",
			"report decisions are per-site deterministic: every row's final estimates are bit-identical",
		},
	}
	for _, w := range batchWindows {
		cfg := cluster.Config{
			NetName:         p.Network,
			CPTSeed:         p.Seed + 0xC0DE,
			Strategy:        core.Uniform,
			Eps:             p.Eps,
			Delta:           p.Delta,
			Sites:           p.Sites,
			Events:          p.Events,
			StreamSeed:      p.Seed + 7,
			Shards:          p.Sites,
			SiteBatchEvents: w,
			LiveQueryMicros: 1000,
		}
		res, _, err := cluster.RunLocal(cfg)
		if err != nil {
			return nil, fmt.Errorf("batching window %d: %w", w, err)
		}
		t.Rows = append(t.Rows, []string{
			p.Network, fmtInt(int64(p.Sites)), fmtInt(int64(p.Events)), fmtInt(int64(w)),
			fmtInt(res.Stats.Frames),
			fmtF(float64(res.Stats.Frames) / float64(res.Stats.Events)),
			fmtInt(res.Stats.Updates),
			fmtInt(res.LiveQueries),
			fmtF(res.Throughput),
		})
	}
	return []*Table{t}, nil
}

// clusterNetworks are the Fig. 7/8 networks (the paper uses the two smaller
// networks on the EC2 cluster).
var clusterNetworks = []string{"alarm", "hepar2"}

// runFig7 reproduces Fig. 7: training runtime on the (loopback TCP) cluster
// vs the number of sites.
func runFig7(p Params) ([]*Table, error) {
	sweep, err := clusterSweep(p, clusterNetworks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig7", Title: "Fig. 7: training runtime (live TCP cluster) vs number of sites",
		Header: []string{"network", "sites", "m", "exact-sec", "baseline-sec", "uniform-sec", "nonuniform-sec"},
		Notes: []string{
			"paper: EC2 t2.micro cluster, 500K instances; here: loopback TCP (see DESIGN.md §4), absolute times differ, trends hold",
		},
	}
	for _, name := range clusterNetworks {
		for _, k := range p.SiteList {
			r := sweep[name][k]
			t.Rows = append(t.Rows, []string{
				name, fmtInt(int64(k)), fmtInt(int64(p.Events)),
				fmtF(r[core.ExactMLE].Runtime.Seconds()),
				fmtF(r[core.Baseline].Runtime.Seconds()),
				fmtF(r[core.Uniform].Runtime.Seconds()),
				fmtF(r[core.NonUniform].Runtime.Seconds()),
			})
		}
	}
	return []*Table{t}, nil
}

// runFig8 reproduces Fig. 8: cluster throughput (events/second) vs number of
// sites.
func runFig8(p Params) ([]*Table, error) {
	sweep, err := clusterSweep(p, clusterNetworks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig8", Title: "Fig. 8: throughput (live TCP cluster, events/sec) vs number of sites",
		Header: []string{"network", "sites", "m", "exact", "baseline", "uniform", "nonuniform"},
	}
	for _, name := range clusterNetworks {
		for _, k := range p.SiteList {
			r := sweep[name][k]
			t.Rows = append(t.Rows, []string{
				name, fmtInt(int64(k)), fmtInt(int64(p.Events)),
				fmtF(r[core.ExactMLE].Throughput),
				fmtF(r[core.Baseline].Throughput),
				fmtF(r[core.Uniform].Throughput),
				fmtF(r[core.NonUniform].Throughput),
			})
		}
	}
	return []*Table{t}, nil
}

// churnCrashes is the kill count per site in the churn experiment: every
// site process dies twice mid-stream (no goodbye) and rejoins.
const churnCrashes = 2

// runChurn measures accuracy under site churn: the same live TCP run is
// executed uninterrupted and with every site killed and restarted at seeded
// stream positions (cluster.RunLocalChurn). Because report decisions are
// per-site deterministic and the coordinator folds reports with an
// idempotent max-merge, the restarted sites' replayed streams restore every
// matrix cell exactly — the divergence column is an exact-replay reference
// like the skewed-routing ablation's error-to-MLE, and it must be 0 across
// every strategy: churn costs retransmitted frames, never accuracy.
func runChurn(p Params) ([]*Table, error) {
	t := &Table{
		ID: "churn", Title: "Fault tolerance: site kill/restart churn vs uninterrupted run (live TCP cluster)",
		Header: []string{"network", "algorithm", "sites", "m", "crashes/site", "frames-clean", "frames-churn", "max-estimate-divergence"},
		Notes: []string{
			"every site is killed at seeded stream positions and restarted; replays are absorbed by the coordinator's max-merge",
			"divergence is max |estimate_churn - estimate_clean| over all counters; determinism makes it exactly 0",
		},
	}
	for _, st := range []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform} {
		cfg := cluster.Config{
			NetName:    p.Network,
			CPTSeed:    p.Seed + 0xC0DE,
			Strategy:   st,
			Eps:        p.Eps,
			Delta:      p.Delta,
			Sites:      p.Sites,
			Events:     p.Events,
			StreamSeed: p.Seed + 7,
			Shards:     p.Sites,
		}
		clean, coClean, err := cluster.RunLocal(cfg)
		if err != nil {
			return nil, fmt.Errorf("churn clean run %v: %w", st, err)
		}
		churned, coChurn, err := cluster.RunLocalChurn(cfg, cluster.ChurnConfig{
			Seed: p.Seed ^ 0xFEE1DEAD, CrashesPerSite: churnCrashes,
		})
		if err != nil {
			return nil, fmt.Errorf("churn run %v: %w", st, err)
		}
		layout, err := cluster.NewLayout(coClean.Network(), st, p.Eps)
		if err != nil {
			return nil, err
		}
		maxDiv := 0.0
		for id := uint32(0); id < layout.NumCounters(); id++ {
			if d := math.Abs(coChurn.Estimate(id) - coClean.Estimate(id)); d > maxDiv {
				maxDiv = d
			}
		}
		t.Rows = append(t.Rows, []string{
			p.Network, st.String(), fmtInt(int64(p.Sites)), fmtInt(int64(p.Events)),
			fmtInt(churnCrashes),
			fmtInt(clean.Stats.Frames), fmtInt(churned.Stats.Frames),
			fmtF(maxDiv),
		})
	}
	return []*Table{t}, nil
}
