// Benchmarks: micro-benchmarks of the hot paths and the throughput rows the
// regression gate reads (scripts/bench_regression.sh). The paper's tables and
// figures are not benchmarks: cmd/bnmle prints them at any scale and
// internal/experiments tests every id (TestEveryExperimentRuns).
package distbayes_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// --- micro-benchmarks of the hot paths ---

func BenchmarkCounterExactInc(b *testing.B) {
	var m counter.Metrics
	c := counter.NewExact(&m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(i & 7)
	}
}

func BenchmarkCounterHYZInc(b *testing.B) {
	var m counter.Metrics
	rng := bn.NewRNG(1)
	c, err := counter.NewHYZ(30, 0.01, 0.25, &m, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc(i % 30)
	}
}

func benchTrackerUpdate(b *testing.B, strategy core.Strategy) {
	b.Helper()
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: strategy, Eps: 0.1, Sites: 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(30, 2), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site, x := training.Next()
		tr.Update(site, x)
	}
	b.ReportMetric(float64(tr.Messages().Total())/float64(b.N), "msgs/event")
}

func BenchmarkTrackerUpdateAlarmExact(b *testing.B) { benchTrackerUpdate(b, core.ExactMLE) }

func BenchmarkTrackerUpdateAlarmNonUniform(b *testing.B) { benchTrackerUpdate(b, core.NonUniform) }

func BenchmarkTrackerQueryProbAlarm(b *testing.B) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(30, 2), 3)
	for i := 0; i < 20000; i++ {
		site, x := training.Next()
		tr.Update(site, x)
	}
	q := make([]int, model.Network().Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.QueryProb(q)
	}
}

// BenchmarkParallelIngest measures the concurrent sharded ingestion engine:
// 8 site goroutines generate their own sub-streams and feed one tracker
// through the batched update path, against a single-goroutine sequential
// baseline. events/sec is the headline metric; run with different GOMAXPROCS
// to observe scaling (the parent-index phase parallelizes fully, the counter
// increments serialize only within a lock stripe).
func BenchmarkParallelIngest(b *testing.B) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		b.Fatal(err)
	}
	const sites = 8
	report := func(b *testing.B, total int64) {
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/sec")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	}

	b.Run("sequential", func(b *testing.B) {
		tr, err := core.NewTracker(model.Network(), core.Config{
			Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		training := stream.NewTraining(model, stream.NewUniformAssigner(sites, 2), 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			site, x := training.Next()
			tr.Update(site, x)
		}
		b.StopTimer()
		report(b, int64(b.N))
	})

	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tr, err := core.NewTracker(model.Network(), core.Config{
				Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 1, Shards: shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			streams := stream.NewSiteTrainings(model, sites, 3)
			perSite := (b.N + sites - 1) / sites
			b.ResetTimer()
			total := stream.DriveParallel(tr, streams, perSite, 512)
			b.StopTimer()
			report(b, total)
		})
	}
}

// loadedTracker builds a tracker over the named network and feeds it events
// so the query benchmarks measure a realistic counter state.
func loadedTracker(b *testing.B, name string, events int) (*core.Tracker, *stream.Training) {
	b.Helper()
	model, err := netgen.ModelByName(name)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: 30, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(30, 2), 3)
	for i := 0; i < events; i++ {
		site, x := training.Next()
		tr.Update(site, x)
	}
	return tr, training
}

// BenchmarkQueryProb measures the snapshot-served joint-probability path.
// "warm" queries a quiesced tracker (cached snapshot, zero lock traffic);
// "cold" interleaves one update per query — the alternating workload — so
// it measures the stale-cache mix the tracker actually serves there:
// per-cell fallback reads for the first staleQueryRebuildThreshold queries
// after each invalidation, a per-stripe snapshot rebuild on the next.
func BenchmarkQueryProb(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		tr, _ := loadedTracker(b, "alarm", 20000)
		q := make([]int, tr.Network().Len())
		_ = tr.QueryProb(q) // build the snapshot outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = tr.QueryProb(q)
		}
	})
	b.Run("cold", func(b *testing.B) {
		tr, training := loadedTracker(b, "alarm", 20000)
		q := make([]int, tr.Network().Len())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			site, x := training.Next()
			tr.Update(site, x)
			_ = tr.QueryProb(q)
		}
	})
}

// BenchmarkClassify measures Markov-blanket classification off the cached
// snapshot.
func BenchmarkClassify(b *testing.B) {
	tr, training := loadedTracker(b, "alarm", 20000)
	_, x := training.Next()
	q := append([]int(nil), x...)
	_ = tr.Classify(0, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Classify(i%len(q), q)
	}
}

// BenchmarkEstimatedModel measures the full model snapshot. "warm" re-serves
// the cached normalized model; "cold" invalidates the counter state each
// iteration, measuring the batched per-stripe rebuild (the historical
// implementation paid 2·J_i·K_i lock round-trips per variable here).
func BenchmarkEstimatedModel(b *testing.B) {
	b.Run("warm", func(b *testing.B) {
		tr, _ := loadedTracker(b, "alarm", 20000)
		if _, err := tr.EstimatedModel(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tr.EstimatedModel(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		tr, training := loadedTracker(b, "alarm", 20000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			site, x := training.Next()
			tr.Update(site, x)
			if _, err := tr.EstimatedModel(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewTracker measures tracker construction: the flat banks allocate
// O(1) slices per (variable, kind) instead of one heap object plus two site
// slices per CPT cell.
func BenchmarkNewTracker(b *testing.B) {
	// munin is built the way the serve-ingest workload builds it: B/op there
	// is what 123 140 cold counters cost.
	for _, tc := range []struct {
		net           string
		sites, shards int
	}{{"alarm", 30, 0}, {"hepar2", 30, 0}, {"munin", 4, 4}} {
		model, err := netgen.ModelByName(tc.net)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.net, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewTracker(model.Network(), core.Config{
					Strategy: core.NonUniform, Eps: 0.1, Sites: tc.sites, Seed: 1, Shards: tc.shards,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSamplerAlarm(b *testing.B) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		b.Fatal(err)
	}
	s := model.NewSampler(1)
	x := make([]int, model.Network().Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(x)
	}
}

// BenchmarkClusterThroughput measures the loopback TCP cluster end to end —
// events/sec through the coordinator plus the frame economy (frames/sec,
// frames/event) — across the transport configurations: the per-event
// baseline and site-side delta batching (protocol v2), with and without a
// live mid-run query mix. Site report decisions are per-site deterministic, so every
// configuration tracks the identical model: frames/event isolates what
// batching buys at equal accuracy.
func BenchmarkClusterThroughput(b *testing.B) {
	run := func(b *testing.B, batch int, liveMicros uint32) {
		var frames, events int64
		for i := 0; i < b.N; i++ {
			res, _, err := cluster.RunLocal(cluster.Config{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
				Eps: 0.1, Sites: 4, Events: 4000, StreamSeed: uint64(i + 1),
				SiteBatchEvents: batch, LiveQueryMicros: liveMicros,
			})
			if err != nil {
				b.Fatal(err)
			}
			frames += res.Stats.Frames
			events += res.Stats.Events
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/sec, "events/sec")
		b.ReportMetric(float64(frames)/sec, "frames/sec")
		b.ReportMetric(float64(frames)/float64(events), "frames/event")
	}
	b.Run("per-event", func(b *testing.B) { run(b, 0, 0) })
	b.Run("batched", func(b *testing.B) { run(b, 128, 0) })
	b.Run("batched+live", func(b *testing.B) { run(b, 128, 200) })
	// The same best configuration with the scheduler actually parallel:
	// sites and the coordinator read loops get real cores.
	b.Run("batched+procs=4", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		run(b, 128, 0)
	})
}

// BenchmarkFederationThroughput measures what the aggregation tree buys at
// the root: the same batched loopback cluster run flat (branching=1, sites
// dial the coordinator directly) and through depth-2 relay trees with
// branching 4 and 8. Relays fold site frames into one coalesced grouped
// frame per cadence, so root-frames/sec divides by roughly the branching
// factor while estimates stay bit-identical (the fold is an idempotent
// max-merge of per-site monotone vectors); fold-ratio reports site frames
// per root frame. Like the cluster benchmark, a procs=4 variant runs the
// branching-4 tree with the scheduler parallel.
func BenchmarkFederationThroughput(b *testing.B) {
	run := func(b *testing.B, branching int) {
		var rootFrames, siteFrames, events int64
		for i := 0; i < b.N; i++ {
			cfg := cluster.Config{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
				Eps: 0.1, Sites: 8, Events: 16000, StreamSeed: uint64(i + 1),
				SiteBatchEvents: 128,
			}
			if branching <= 1 {
				res, _, err := cluster.RunLocal(cfg)
				if err != nil {
					b.Fatal(err)
				}
				rootFrames += res.Stats.Frames
				siteFrames += res.Stats.Frames
				events += res.Stats.Events
			} else {
				res, _, relays, err := cluster.RunLocalTree(cfg, branching, 50*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				rootFrames += res.Stats.Frames
				for _, r := range relays {
					siteFrames += r.DownFrames.Load()
				}
				events += res.Stats.Events
			}
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/sec, "events/sec")
		b.ReportMetric(float64(rootFrames)/sec, "root-frames/sec")
		if rootFrames > 0 {
			b.ReportMetric(float64(siteFrames)/float64(rootFrames), "fold-ratio")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	}
	b.Run("branching=1", func(b *testing.B) { run(b, 1) })
	b.Run("branching=4", func(b *testing.B) { run(b, 4) })
	b.Run("branching=8", func(b *testing.B) { run(b, 8) })
	b.Run("branching=4+procs=4", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		run(b, 4)
	})
}

// BenchmarkStructLearnOverhead isolates what the online structure-learning
// overlay costs in cluster ingest throughput: the same batched loopback run
// with the pairwise-statistics accumulation, struct frames, and periodic
// coordinator relearns on (struct-on) versus off (struct-off). The flat
// counter protocol is untouched either way (estimates stay bit-identical),
// so the events/sec gap is the full price of learning the structure online.
// struct-on ships at the 256-event cadence the site's pair kernel blocks on;
// struct-on/batch=16 ships (and so folds a partial block, and encodes and
// decodes the full cell vector) sixteen times as often, so a regression in
// the small-cadence path shows up as its own row.
func BenchmarkStructLearnOverhead(b *testing.B) {
	run := func(b *testing.B, structBatch int) {
		var frames, events int64
		for i := 0; i < b.N; i++ {
			res, _, err := cluster.RunLocal(cluster.Config{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
				Eps: 0.1, Sites: 4, Events: 4000, StreamSeed: uint64(i + 1),
				SiteBatchEvents: 128, StructBatchEvents: structBatch,
			})
			if err != nil {
				b.Fatal(err)
			}
			frames += res.Stats.Frames
			events += res.Stats.Events
		}
		sec := b.Elapsed().Seconds()
		b.ReportMetric(float64(events)/sec, "events/sec")
		b.ReportMetric(float64(frames)/float64(events), "frames/event")
	}
	b.Run("struct-off", func(b *testing.B) { run(b, 0) })
	b.Run("struct-on", func(b *testing.B) { run(b, 256) })
	b.Run("struct-on/batch=16", func(b *testing.B) { run(b, 16) })
}
