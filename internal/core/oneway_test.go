package core_test

import (
	"io"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

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
