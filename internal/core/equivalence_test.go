package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"distbayes/internal/bn"
)

// This file is the randomized-interleaving equivalence harness: it replays
// one fixed event sequence through the sequential reference tracker and
// through concurrent trackers (striped and delta-buffered) under seeded
// random goroutine schedules, then asserts that exact counts are identical
// and that every randomized counter estimate stays within its protocol
// bound. The schedules are deterministic in their seed, so a failure
// reproduces; the goroutine interleavings underneath are not, which is the
// point — under `go test -race` this doubles as the data-race probe for
// every ingestion mode x strategy combination.
//
// The helpers (replayRandomSchedule, assertExactEquivalence,
// assertEstimatesWithinBound) are reusable: any test that adds a new
// ingestion path can drive it through the same machinery.

// replayRandomSchedule ingests evs into tr from `workers` goroutines under a
// schedule derived from seed: the stream is cut into randomly sized chunks
// dealt to random workers, and each worker replays its chunks in order
// through a randomly chosen entry point per chunk — per-event Update,
// UpdateEvents, UpdateBatch when the chunk is single-site, or an explicit
// DeltaBuffer on delta-buffered trackers — with scheduling-point yields
// sprinkled in. A FlushDeltas barrier runs before returning, so the tracker
// is fully caught up. Exact counts are schedule-independent; randomized
// estimates and message tallies are not, which is exactly what the
// assertions below distinguish.
func replayRandomSchedule(tb testing.TB, tr *Tracker, evs []Event, workers int, seed uint64) {
	tb.Helper()
	rng := bn.NewRNG(seed)
	chunks := make([][][]Event, workers)
	for lo := 0; lo < len(evs); {
		hi := min(lo+1+rng.Intn(48), len(evs))
		w := rng.Intn(workers)
		chunks[w] = append(chunks[w], evs[lo:hi])
		lo = hi
	}
	buffered := tr.Config().DeltaBuffered
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, wseed uint64) {
			defer wg.Done()
			wrng := bn.NewRNG(wseed)
			var buf *DeltaBuffer
			if buffered {
				buf = tr.NewDeltaBuffer()
				defer buf.Release()
			}
			for _, chunk := range chunks[w] {
				choice := wrng.Intn(4)
				switch {
				case choice == 0:
					for _, ev := range chunk {
						tr.Update(ev.Site, ev.X)
					}
				case choice == 1 && buf != nil:
					buf.AddEvents(chunk)
				case choice == 2 && singleSite(chunk):
					xs := make([][]int, len(chunk))
					for i := range chunk {
						xs[i] = chunk[i].X
					}
					tr.UpdateBatch(chunk[0].Site, xs)
				default:
					tr.UpdateEvents(chunk)
				}
				if wrng.Intn(4) == 0 {
					runtime.Gosched()
				}
			}
		}(w, seed^(uint64(w)*0x9e3779b97f4a7c15+1))
	}
	wg.Wait()
	tr.FlushDeltas()
}

func singleSite(evs []Event) bool {
	for _, ev := range evs {
		if ev.Site != evs[0].Site {
			return false
		}
	}
	return true
}

// assertExactEquivalence fails unless got's event count and every exact
// (pair, parent) cell count matches ref's.
func assertExactEquivalence(t *testing.T, ref, got *Tracker) {
	t.Helper()
	if got.Events() != ref.Events() {
		t.Fatalf("events = %d, want %d", got.Events(), ref.Events())
	}
	want, have := cellCounts(t, ref), cellCounts(t, got)
	for c := range want {
		if have[c] != want[c] {
			t.Fatalf("exact cell %d counts = %v, want %v", c, have[c], want[c])
		}
	}
}

// estimateBound returns the allowed |estimate - exact| slack for a counter
// with error parameter eps tracking an exact count of n. ExactMLE (and any
// eps = 0 allocation) must be exact. The deterministic counter's bound is a
// theorem — unreported site deltas total at most ε·base + k — while the
// randomized counter's is its ε·C guarantee with headroom for the
// expectation-corrected tail (the harness seeds are fixed, so this is a
// deterministic regression check, not a flaky statistical one).
func estimateBound(cfg Config, eps float64, n int64) float64 {
	if eps == 0 {
		return 0
	}
	k := float64(cfg.Sites)
	if cfg.Counter == DeterministicCounter {
		return eps*float64(n) + k + 1
	}
	return 3*eps*float64(n) + math.Sqrt(k)/eps + 1
}

// assertEstimatesWithinBound walks every bank cell and fails where the
// tracked estimate strays further from the exact count than the counter
// protocol allows (see estimateBound).
func assertEstimatesWithinBound(t *testing.T, tr *Tracker) {
	t.Helper()
	net, alloc, cfg := tr.Network(), tr.Allocation(), tr.Config()
	var rows CPDRows
	for i := 0; i < net.Len(); i++ {
		tr.ReadCPDRows(i, &rows)
		j := net.Card(i)
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < j; v++ {
				pc, qc := tr.ExactCount(i, v, pidx)
				pairEst := rows.Pair[pidx*j+v]
				if d, bound := math.Abs(pairEst-float64(pc)), estimateBound(cfg, alloc.EpsA[i], pc); d > bound {
					t.Errorf("var %d pair cell (%d,%d): |%.3f - %d| = %.3f exceeds bound %.3f",
						i, v, pidx, pairEst, pc, d, bound)
				}
				if d, bound := math.Abs(rows.Par[pidx]-float64(qc)), estimateBound(cfg, alloc.EpsB[i], qc); d > bound {
					t.Errorf("var %d parent cell %d: |%.3f - %d| = %.3f exceeds bound %.3f",
						i, pidx, rows.Par[pidx], qc, d, bound)
				}
			}
		}
	}
}

// TestRandomScheduleEquivalence is the harness entry point: for every
// strategy (and the deterministic-counter ablation), the same event stream
// is replayed sequentially and then through striped and delta-buffered
// trackers under several seeded random schedules.
func TestRandomScheduleEquivalence(t *testing.T) {
	m := testModel(t)
	const sites = 4
	events := 12000
	if testing.Short() {
		events = 4000
	}
	evs := genEventStream(m, sites, events, 23)

	type mode struct {
		name     string
		shards   int
		buffered bool
		cadence  int
		workers  int
	}
	modes := []mode{
		{name: "striped", shards: 3, workers: 4},
		{name: "buffered", shards: 1, buffered: true, cadence: 256, workers: 4},
		{name: "buffered-striped", shards: 3, buffered: true, cadence: 512, workers: 3},
	}

	variants := make([]Config, 0, len(allStrategies)+1)
	for _, st := range allStrategies {
		variants = append(variants, cfgFor(st, 0))
	}
	detCfg := cfgFor(NonUniform, 0)
	detCfg.Counter = DeterministicCounter
	detCfg.Delta = 0
	variants = append(variants, detCfg)

	for vi, base := range variants {
		base := base
		name := base.Strategy.String()
		if base.Counter == DeterministicCounter {
			name += "-deterministic"
		}
		t.Run(name, func(t *testing.T) {
			ref, err := NewTracker(m.Network(), base)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				ref.Update(ev.Site, ev.X)
			}
			assertEstimatesWithinBound(t, ref) // the bound must hold sequentially too

			for mi, md := range modes {
				md := md
				t.Run(md.name, func(t *testing.T) {
					cfg := base
					cfg.Shards = md.shards
					cfg.DeltaBuffered = md.buffered
					cfg.DeltaFlushEvents = md.cadence
					tr, err := NewTracker(m.Network(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					replayRandomSchedule(t, tr, evs, md.workers, uint64(1000*vi+mi)+77)
					assertExactEquivalence(t, ref, tr)
					assertEstimatesWithinBound(t, tr)
				})
			}
		})
	}
}

// TestRandomScheduleEquivalenceSeeds re-runs one configuration under many
// schedule seeds — cheap extra interleaving coverage for the buffered mode
// on top of the full strategy sweep above.
func TestRandomScheduleEquivalenceSeeds(t *testing.T) {
	m := testModel(t)
	const sites = 4
	events := 6000
	if testing.Short() {
		events = 2000
	}
	evs := genEventStream(m, sites, events, 29)
	ref, err := NewTracker(m.Network(), cfgFor(NonUniform, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		ref.Update(ev.Site, ev.X)
	}
	for seed := uint64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := cfgFor(NonUniform, 2)
			cfg.DeltaBuffered = true
			cfg.DeltaFlushEvents = 128 << seed // vary the publish cadence too
			tr, err := NewTracker(m.Network(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			replayRandomSchedule(t, tr, evs, 3+int(seed%3), seed*131+5)
			assertExactEquivalence(t, ref, tr)
			assertEstimatesWithinBound(t, tr)
		})
	}
}
