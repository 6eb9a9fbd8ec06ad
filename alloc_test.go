//go:build !race

// The race detector instruments allocations, so this gate only builds — and
// only means anything — in the non-race test pass.

package distbayes_test

import (
	"testing"

	"distbayes/internal/cluster"
	"distbayes/internal/core"
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
// scratch's box, so Put has no slice header to re-box.
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
