package core_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

var strategies = []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform, core.NaiveBayes}

func alarmModel(t testing.TB, cptSeed uint64) *bn.Model {
	t.Helper()
	netw, err := netgen.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	opt := netgen.DefaultCPTOptions()
	opt.Seed = cptSeed
	cpds, err := netgen.GenCPTs(netw, opt)
	if err != nil {
		t.Fatal(err)
	}
	return bn.MustModel(netw, cpds)
}

// siteEvents is site id's share of cfg.Events, split as the cluster splits
// it: site 0 takes ⌈HotSiteShare·Events⌉ and the rest split evenly over the
// other sites, or all of it splits evenly when HotSiteShare is 0.
func siteEvents(cfg cluster.Config, id int) int {
	events, k := cfg.Events, cfg.Sites
	if cfg.HotSiteShare > 0 && k > 1 {
		hot := min(int(math.Ceil(cfg.HotSiteShare*float64(events))), events)
		if id == 0 {
			return hot
		}
		events, k, id = events-hot, k-1, id-1
	}
	if id < events%k {
		return events/k + 1
	}
	return events / k
}

// TestOneWayTrackerReproducesClusterRun: a sequential tracker running the
// one-way kind, fed each site's stream in turn with the generator reseeded as
// that site's, ends with every factor bit-identical to a live cluster run's
// over the same streams and seeds — per-event frames, 128-event windows, a
// hot site and a relay tree alike — and, where every decided report is one
// wire entry (flat, per-event), with as many site → coordinator messages as
// the coordinator received entries. A site's decisions depend only on its own
// local counts and coins, which is why feeding the sites one after another
// reproduces sites that ran at once. -short runs a quarter of the stream.
func TestOneWayTrackerReproducesClusterRun(t *testing.T) {
	type run struct {
		name      string
		cfg       cluster.Config
		branching int // relay tree with this branching; 0 = flat
	}
	base := cluster.Config{NetName: "alarm", CPTSeed: 0xC0DE, Eps: 0.1, Delta: 0.25, Events: 20000, StreamSeed: 7}
	if testing.Short() {
		base.Events = 5000
	}
	var runs []run
	for _, strategy := range strategies {
		for _, k := range []int{1, 3, 5} {
			cfg := base
			cfg.Strategy, cfg.Sites = strategy, k
			runs = append(runs, run{name: fmt.Sprintf("%v/k=%d", strategy, k), cfg: cfg})
		}
	}
	skewed := base
	skewed.Strategy, skewed.Sites = core.NonUniform, 5
	batched, hot := skewed, skewed
	batched.SiteBatchEvents = 128
	hot.HotSiteShare = 0.9
	runs = append(runs,
		run{name: "nonuniform/k=5/batch=128", cfg: batched},
		run{name: "nonuniform/k=5/hot=0.9", cfg: hot},
		run{name: "nonuniform/k=5/tree=2", cfg: skewed, branching: 2})

	model := alarmModel(t, base.CPTSeed)
	netw := model.Network()
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg
			var res cluster.Result
			var co *cluster.Coordinator
			var err error
			if r.branching > 0 {
				res, co, _, err = cluster.RunLocalTree(cfg, r.branching, 0)
			} else {
				res, co, err = cluster.RunLocal(cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.NewOneWayTracker(netw, core.Config{Strategy: cfg.Strategy, Eps: cfg.Eps, Delta: cfg.Delta, Sites: cfg.Sites})
			if err != nil {
				t.Fatal(err)
			}
			for site := 0; site < cfg.Sites; site++ {
				tr.Reseed(cfg.StreamSeed ^ (uint64(site) * 0x9e3779b97f4a7c15))
				training := stream.NewSiteTraining(model, site, cfg.StreamSeed)
				for range siteEvents(cfg, site) {
					_, x := training.Next()
					tr.Update(site, x)
				}
			}
			if tr.Events() != int64(cfg.Events) || res.Stats.Events != int64(cfg.Events) {
				t.Fatalf("events: tracker %d, cluster %d, want %d", tr.Events(), res.Stats.Events, cfg.Events)
			}
			want, got := co.AcquireSnapshot(), tr.AcquireSnapshot()
			defer got.Release()
			for i := 0; i < netw.Len(); i++ {
				for pidx := 0; pidx < netw.ParentCard(i); pidx++ {
					for v := 0; v < netw.Card(i); v++ {
						if g, w := got.Factor(i, v, pidx), want.Factor(i, v, pidx); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("factor (%d, %d, %d): tracker %v, cluster %v", i, v, pidx, g, w)
						}
					}
				}
			}
			msgs := tr.Messages()
			if msgs.CoordToSite != 0 {
				t.Errorf("one-way tracker sent %d coordinator → site messages", msgs.CoordToSite)
			}
			if r.branching == 0 && cfg.SiteBatchEvents == 0 && msgs.SiteToCoord != res.Stats.Updates {
				t.Errorf("tracker sent %d messages, the coordinator received %d entries", msgs.SiteToCoord, res.Stats.Updates)
			}
		})
	}
}

// TestOneWayTrackerRefusesSaveState: the one-way kind has no state record,
// so a tracker running it cannot checkpoint.
func TestOneWayTrackerRefusesSaveState(t *testing.T) {
	tr, err := core.NewOneWayTracker(alarmModel(t, 1).Network(), core.Config{Strategy: core.NonUniform, Eps: 0.1, Sites: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.Update(0, make([]int, tr.Network().Len()))
	if err := tr.SaveState(io.Discard); err == nil {
		t.Fatal("SaveState of a one-way tracker succeeded")
	}
}

// TestOneWayCostsFewerMessagesThanHYZ measures both randomized kinds'
// messages per event at equal k and stream — alarm, NONUNIFORM, ε = 0.1,
// 2¹⁷ events over stream.NewSiteTrainings, the sites taking turns — at the k
// of the cluster-batched (2) and tracker-ingest (30) benchmark workloads,
// and asserts the ordering it measures: the one-way kind, with no rounds to
// open and no broadcasts, sends fewer (the counter package doc quotes these
// figures).
func TestOneWayCostsFewerMessagesThanHYZ(t *testing.T) {
	if testing.Short() {
		t.Skip("four trackers over 2^17 events: ~1 s, ~35 s under -race")
	}
	const events = 1 << 17
	model := alarmModel(t, 0xC0DE)
	for _, k := range []int{2, 30} {
		cfg := core.Config{Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25, Sites: k, Seed: 3}
		perEvent := map[string]float64{}
		for name, build := range map[string]func(*bn.Network, core.Config) (*core.Tracker, error){
			"hyz": core.NewTracker, "oneway": core.NewOneWayTracker,
		} {
			tr, err := build(model.Network(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			streams := stream.NewSiteTrainings(model, k, 11)
			for e := range events {
				site, x := streams[e%k].Next()
				tr.Update(site, x)
			}
			perEvent[name] = float64(tr.Messages().Total()) / events
		}
		t.Logf("k=%d: messages per event: HYZ %.2f, one-way %.2f", k, perEvent["hyz"], perEvent["oneway"])
		if perEvent["oneway"] >= perEvent["hyz"] {
			t.Errorf("k=%d: one-way %.2f messages per event, HYZ %.2f: want fewer", k, perEvent["oneway"], perEvent["hyz"])
		}
	}
}
