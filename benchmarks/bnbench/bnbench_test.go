package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// tiny shrinks a workload to a size that runs in a fraction of a second, for
// tests of what the harness does rather than of how fast the system is.
func tiny(sp spec) spec {
	sp.sizes = sizes{
		ingestRounds: 2, ingestEvents: 20000, warmEvents: 256, pool: 4096,
		queryRounds: tailRounds, queries: 6, testQueries: 40, setups: 1, calibRuns: 1,
	}
	if sp.net == "munin" {
		// A looser ε takes munin's counters out of their exact phase within
		// a thousand events instead of ten thousand.
		cfg := *sp.tracker
		cfg.Eps = 0.9
		sp.tracker = &cfg
		sp.sizes.ingestEvents, sp.sizes.warmEvents, sp.sizes.pool = 1000, 8, 256
	}
	return sp
}

var exact = []string{"msgs_per_event", "frames_per_event", "err_vs_mle_mean"}

// TestDeterministicPerSeed runs every workload twice on one seed and once on
// another: the three count metrics must repeat exactly for a seed and differ
// between seeds, and no operation may fail.
func TestDeterministicPerSeed(t *testing.T) {
	for _, full := range specs(20) {
		sp := tiny(full)
		t.Run(sp.name, func(t *testing.T) {
			var got [3]*result
			for i, seed := range []uint64{7, 7, 8} {
				res, err := run(&sp, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("seed %d: %d of %d operations failed: %v", seed, res.failed, res.attempted, res.notes)
				}
				for _, d := range endToEnd {
					if _, ok := res.metrics[d.name]; !ok {
						t.Errorf("seed %d: metric %s missing", seed, d.name)
					}
				}
				got[i] = res
			}
			differs := false
			for _, name := range exact {
				if a, b := got[0].metrics[name], got[1].metrics[name]; a != b {
					t.Errorf("%s: %v then %v on the same seed", name, a, b)
				}
				if got[0].metrics[name] != got[2].metrics[name] {
					differs = true
				}
			}
			if !differs {
				t.Errorf("a second seed gave the same counts: %v", got[2].metrics)
			}
		})
	}
}

// TestTraceRecordsLayers checks that a traced run records spans around the
// calls into the layers and that self times are consistent.
func TestTraceRecordsLayers(t *testing.T) {
	sp := tiny(specs(20)[0])
	sp.sizes.ingestRounds = 4
	tr := newTracer()
	res, err := run(&sp, 3, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%d operations failed: %v", res.failed, res.notes)
	}
	seen := map[string]layerTime{}
	for _, lt := range res.layers {
		seen[lt.name] = lt
		if lt.self < 0 || lt.self > lt.total {
			t.Errorf("%s: self time %v outside [0, total %v]", lt.name, lt.self, lt.total)
		}
	}
	for _, name := range []string{"bench.ingest_round", "core.UpdateEvents", "bench.query_round", "serve.http"} {
		if seen[name].count == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	for _, d := range traceMetrics {
		if _, ok := res.metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness naming the
// same workloads and the same metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	defs := func(ds ...[]metricDef) []string {
		var ms []metric
		for _, d := range ds {
			for _, m := range d {
				ms = append(ms, metric{m.name, m.unit})
			}
		}
		return names(ms)
	}
	equal := func(what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, the harness %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: BENCHMARK.json has %q where the harness has %q", what, got[i], want[i])
			}
		}
	}
	equal("end_to_end", names(bm.EndToEnd), defs(endToEnd))
	equal("per_layer", names(bm.PerLayer), defs(traceMetrics, layerMetrics))
	var have, want []string
	for _, w := range bm.Workloads {
		have = append(have, w.Name)
	}
	for _, sp := range specs(20) {
		want = append(want, sp.name)
	}
	sort.Strings(have)
	sort.Strings(want)
	equal("workloads", have, want)
}
