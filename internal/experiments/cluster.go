package experiments

import (
	"fmt"

	"distbayes/internal/cluster"
	"distbayes/internal/core"
)

func init() {
	registry["fig7"] = clusterFigure("fig7", "Fig. 7: training runtime (live TCP cluster) vs number of sites", "-sec",
		[]string{"paper: EC2 t2.micro cluster, 500K instances; here: loopback TCP (see README, Reproducing the paper), absolute times differ, trends hold"},
		func(r cluster.Result) float64 { return r.Runtime.Seconds() })
	registry["fig8"] = clusterFigure("fig8", "Fig. 8: throughput (live TCP cluster, events/sec) vs number of sites", "",
		nil, func(r cluster.Result) float64 { return r.Throughput })
}

// clusterNetworks are the Fig. 7/8 networks (the paper uses the two smaller
// networks on the EC2 cluster).
var clusterNetworks = []string{"alarm", "hepar2"}

// clusterPoint names one run of the Figs. 7/8 sweep.
type clusterPoint struct {
	network  string
	sites    int
	strategy core.Strategy
}

// clusterSweep runs the live TCP cluster for every Fig. 7/8 network, site
// count and algorithm; the two figures are the runtime and the throughput
// view of it, so it runs on first use and is kept for the session. The sweep
// runs the coordinator with a mid-run query mix (one probe per millisecond
// against the live snapshot path) so the measured runtime and throughput
// reflect the paper's query-at-any-time serving model, not an idle ingest
// loop; site batching stays off here to keep the per-event frame accounting
// of the paper's transmission model.
func (s *Session) clusterSweep() (map[clusterPoint]cluster.Result, error) {
	if s.cluster != nil {
		return s.cluster, nil
	}
	out := map[clusterPoint]cluster.Result{}
	for _, name := range clusterNetworks {
		for _, k := range s.p.SiteList {
			for _, st := range allStrategies {
				cfg := cluster.Config{
					NetName: name, CPTSeed: s.p.Seed + 0xC0DE, Strategy: st,
					Eps: s.p.Eps, Delta: s.p.Delta, Sites: k, Events: s.p.Events,
					StreamSeed: s.p.Seed + 7, LiveQueryMicros: 1000,
				}
				res, _, err := cluster.RunLocal(cfg)
				if err != nil {
					return nil, fmt.Errorf("cluster sweep %s k=%d %v: %w", name, k, st, err)
				}
				out[clusterPoint{name, k, st}] = res
			}
		}
	}
	s.cluster = out
	return out, nil
}

// clusterFigure declares Fig. 7 or Fig. 8: one row per (network, k) of the
// cluster sweep with one column per algorithm holding of(result).
func clusterFigure(id, title, suffix string, notes []string, of func(cluster.Result) float64) runner {
	return func(s *Session) ([]*Table, error) {
		sweep, err := s.clusterSweep()
		if err != nil {
			return nil, err
		}
		t := &Table{
			ID: id, Title: title, Notes: notes,
			Header: append([]string{"network", "sites", "m"}, strategyNames(allStrategies, suffix)...),
		}
		for _, name := range clusterNetworks {
			for _, k := range s.p.SiteList {
				t.Rows = append(t.Rows, append([]string{name, fmtInt(int64(k)), fmtInt(int64(s.p.Events))},
					strategyCells(allStrategies, func(st core.Strategy) float64 {
						return of(sweep[clusterPoint{name, k, st}])
					})...))
			}
		}
		return []*Table{t}, nil
	}
}
