//go:build !race

// The race detector instruments allocations, so this gate only builds — and
// only means anything — in the non-race test pass.

package distbayes_test

import (
	"runtime"
	"testing"

	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// TestWarmQueriesDoNotAllocate gates what BENCH_BASELINE.txt only reports: a
// query against a current snapshot — no ingest since it was built — takes no
// lock and allocates nothing, on the tracker and on the coordinator.
func TestWarmQueriesDoNotAllocate(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	net := model.Network()
	tr, err := core.NewTracker(net, core.Config{Strategy: core.NonUniform, Eps: 0.1, Sites: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(4, 2), 3)
	for i := 0; i < 5000; i++ {
		tr.Update(training.Next())
	}
	_, co, err := cluster.RunLocal(cluster.Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25,
		Sites: 2, Events: 5000, StreamSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, x := training.Next()
	x = append([]int(nil), x...)
	set := net.AncestralClosure([]int{net.Len() - 1})
	if _, err := tr.EstimatedModel(); err != nil { // builds the snapshot and its model
		t.Fatal(err)
	}
	_ = co.QueryProb(x)

	target := 0
	for name, query := range map[string]func(){
		"Tracker.QueryProb":       func() { _ = tr.QueryProb(x) },
		"Tracker.QuerySubsetProb": func() { _ = tr.QuerySubsetProb(set, x) },
		"Tracker.Classify":        func() { target = (target + 1) % len(x); _ = tr.Classify(target, x) },
		"Tracker.EstimatedModel":  func() { _, _ = tr.EstimatedModel() },
		"Coordinator.QueryProb":   func() { _ = co.QueryProb(x) },
	} {
		if a := testing.AllocsPerRun(200, query); a != 0 {
			t.Errorf("warm %s allocates %v/op, want 0", name, a)
		}
	}
}

// TestWarmIngestDoesNotAllocate gates the ingest side the same way: once the
// pooled pass scratch exists, UpdateEvents (the benchmark's 12-event pump
// batches and 256-event rounds) and Update allocate nothing, on the
// sequential reference tracker and on a striped one. The pool holds the
// scratch's box, so Put has no slice header to re-box. A counter gets its
// round record when it leaves its exact phase, so ingest allocates when — and
// only when — a touched cell opens its first round: the warm-up replays the
// batch until every cell it touches has (each replay adds at least one to
// each, and no counter's exact phase outlasts the largest ExactThreshold).
func TestWarmIngestDoesNotAllocate(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	events := stream.NewTraining(model, stream.NewUniformAssigner(4, 2), 3).NextEvents(nil, 256)
	for _, shards := range []int{1, 4} {
		tr, err := core.NewTracker(model.Network(), core.Config{Strategy: core.NonUniform, Eps: 0.1, Sites: 4, Seed: 1, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		alloc, replays := tr.Allocation(), int64(0)
		for i := range alloc.EpsA {
			replays = max(replays, counter.ExactThreshold(4, alloc.EpsA[i]), counter.ExactThreshold(4, alloc.EpsB[i]))
		}
		for ; replays > 0; replays-- {
			tr.UpdateEvents(events)
		}
		for name, ingest := range map[string]func(){
			"UpdateEvents(12)":  func() { tr.UpdateEvents(events[:12]) },
			"UpdateEvents(256)": func() { tr.UpdateEvents(events) },
			"Update":            func() { tr.Update(events[0].Site, events[0].X) },
		} {
			ingest() // size the scratch for this batch length
			if a := testing.AllocsPerRun(100, ingest); a != 0 {
				t.Errorf("Shards=%d: warm %s allocates %v/op, want 0", shards, name, a)
			}
		}
	}
}

// TestColdCellsAreCheap gates what a counter costs before it samples: the
// benchmark's serve-ingest tracker (netgen munin, 123 140 counters,
// NonUniform, 4 sites, 4 stripes) retains at most 1.5 MiB when built (1.33
// measured: a word per cell and a two-line header per bank; it was 14.07 MiB
// while every cell's round state was allocated up front) and at most
// 2.25 MiB after that workload's ~125k events (2.01 measured), when one cell
// in twenty has opened a round.
func TestColdCellsAreCheap(t *testing.T) {
	model, err := netgen.ModelByName("munin")
	if err != nil {
		t.Fatal(err)
	}
	pool := stream.NewTraining(model, stream.NewUniformAssigner(4, 2), 3).NextEvents(nil, 1<<14)
	heapMiB := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second pass empties the pass-scratch pool's victim cache
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	before := heapMiB()
	tr, err := core.NewTracker(model.Network(), core.Config{Strategy: core.NonUniform, Eps: 0.1, Sites: 4, Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := heapMiB() - before; got > 1.5 {
		t.Errorf("NewTracker(munin) retains %.2f MiB, want <= 1.5", got)
	}
	for n := 0; n < 125_000; n += 1 << 12 {
		tr.UpdateEvents(pool[n%len(pool):][:1<<12])
	}
	if got := heapMiB() - before; got > 2.25 {
		t.Errorf("munin tracker retains %.2f MiB after %d events, want <= 2.25", got, tr.Events())
	}
	runtime.KeepAlive(pool)
	runtime.KeepAlive(model) // only its network is the tracker's
}
