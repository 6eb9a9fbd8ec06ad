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
// through striped trackers under seeded random goroutine schedules, then
// asserts that exact counts are identical and that every randomized counter
// estimate stays within its protocol bound. The schedules are deterministic
// in their seed, so a failure reproduces; the goroutine interleavings
// underneath are not, which is the point — under `go test -race` this
// doubles as the data-race probe for every stripe count x strategy
// combination.
//
// The helpers (replayRandomSchedule, assertExactEquivalence,
// assertEstimatesWithinBound) are reusable: any test that adds a new
// ingestion path can drive it through the same machinery.

// replayRandomSchedule ingests evs into tr from `workers` goroutines under a
// schedule derived from seed: the stream is cut into randomly sized chunks
// dealt to random workers, and each worker replays its chunks in order
// through a randomly chosen entry point per chunk — per-event Update,
// UpdateEvents, or UpdateBatch when the chunk is single-site — with
// scheduling-point yields sprinkled in. Exact counts are
// schedule-independent; randomized estimates and message tallies are not,
// which is exactly what the assertions below distinguish.
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, wseed uint64) {
			defer wg.Done()
			wrng := bn.NewRNG(wseed)
			for _, chunk := range chunks[w] {
				choice := wrng.Intn(3)
				switch {
				case choice == 0:
					for _, ev := range chunk {
						tr.Update(ev.Site, ev.X)
					}
				case choice == 1 && singleSite(chunk):
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
// eps = 0 allocation) must be exact; the randomized counter's bound is its
// ε·C guarantee with headroom for the expectation-corrected tail (the harness
// seeds are fixed, so this is a deterministic regression check, not a flaky
// statistical one).
func estimateBound(cfg Config, eps float64, n int64) float64 {
	if eps == 0 {
		return 0
	}
	return 3*eps*float64(n) + math.Sqrt(float64(cfg.Sites))/eps + 1
}

// assertEstimatesWithinBound walks every bank cell and fails where the
// tracked estimate strays further from the exact count than the counter
// protocol allows (see estimateBound).
func assertEstimatesWithinBound(t *testing.T, tr *Tracker) {
	t.Helper()
	net, alloc, cfg := tr.Network(), tr.Allocation(), tr.Config()
	for i := 0; i < net.Len(); i++ {
		pair, par := rawRows(tr, i)
		j := net.Card(i)
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < j; v++ {
				pc, qc := tr.ExactCount(i, v, pidx)
				pairEst := pair[pidx*j+v]
				if d, bound := math.Abs(pairEst-float64(pc)), estimateBound(cfg, alloc.EpsA[i], pc); d > bound {
					t.Errorf("var %d pair cell (%d,%d): |%.3f - %d| = %.3f exceeds bound %.3f",
						i, v, pidx, pairEst, pc, d, bound)
				}
				if d, bound := math.Abs(par[pidx]-float64(qc)), estimateBound(cfg, alloc.EpsB[i], qc); d > bound {
					t.Errorf("var %d parent cell %d: |%.3f - %d| = %.3f exceeds bound %.3f",
						i, pidx, par[pidx], qc, d, bound)
				}
			}
		}
	}
}

// TestRandomScheduleEquivalence is the harness entry point: for every
// strategy, the same event stream is replayed sequentially and then through striped trackers of two stripe
// counts under seeded random schedules.
func TestRandomScheduleEquivalence(t *testing.T) {
	m := testModel(t)
	const sites = 4
	events := 12000
	if testing.Short() {
		events = 4000
	}
	evs := genEventStream(m, sites, events, 23)

	modes := []struct {
		name            string
		shards, workers int
	}{
		{name: "striped", shards: 3, workers: 4},
		{name: "striped-2", shards: 2, workers: 3},
	}

	for vi, st := range allStrategies {
		base := cfgFor(st, 0)
		t.Run(st.String(), func(t *testing.T) {
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

// TestRandomScheduleEquivalenceSeeds re-runs one strategy under many
// schedule seeds, stripe counts (2, 3, 5) and writer counts (3–5) — cheap
// extra interleaving coverage for the striped engine on top of the full
// strategy sweep above.
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
			shards := []int{2, 3, 5}[seed%3]
			tr, err := NewTracker(m.Network(), cfgFor(NonUniform, shards))
			if err != nil {
				t.Fatal(err)
			}
			replayRandomSchedule(t, tr, evs, 3+int(seed/2%3), seed*131+5)
			assertExactEquivalence(t, ref, tr)
			assertEstimatesWithinBound(t, tr)
		})
	}
}
