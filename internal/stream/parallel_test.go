package stream

import (
	"context"
	"sync"
	"testing"

	"distbayes/internal/core"
)

func TestFixedAssigner(t *testing.T) {
	a := NewFixedAssigner(3)
	for i := 0; i < 10; i++ {
		if a.Next() != 3 {
			t.Fatal("fixed assigner moved")
		}
	}
}

// TestNextEventsCopiesAndMatchesNext: NextEvents must yield the same
// (site, event) sequence as repeated Next calls, with independent backing
// arrays safe to retain.
func TestNextEventsCopiesAndMatchesNext(t *testing.T) {
	m := smallModel(t)
	ref := NewTraining(m, NewUniformAssigner(5, 1), 2)
	tr := NewTraining(m, NewUniformAssigner(5, 1), 2)

	evs := tr.NextEvents(nil, 200)
	if len(evs) != 200 || tr.Count() != 200 {
		t.Fatalf("got %d events, count %d", len(evs), tr.Count())
	}
	for j, ev := range evs {
		site, x := ref.Next()
		if ev.Site != site {
			t.Fatalf("event %d site = %d, want %d", j, ev.Site, site)
		}
		for i := range x {
			if ev.X[i] != x[i] {
				t.Fatalf("event %d differs at var %d", j, i)
			}
		}
	}
	// Later generation must not clobber earlier events (fresh arrays).
	saved := append([]int(nil), evs[0].X...)
	tr.NextEvents(nil, 50)
	for i := range saved {
		if evs[0].X[i] != saved[i] {
			t.Fatal("NextEvents reused an event's backing array")
		}
	}
	// The events of one call share a slab; an append to one must reallocate
	// rather than write into its neighbour.
	neighbour := append([]int(nil), evs[1].X...)
	if grown := append(evs[0].X, -1); cap(evs[0].X) != len(evs[0].X) || &grown[0] == &evs[0].X[0] {
		t.Fatal("an event's X has spare capacity inside the shared slab")
	}
	for i := range neighbour {
		if evs[1].X[i] != neighbour[i] {
			t.Fatal("appending to one event clobbered the next")
		}
	}
	if got := tr.NextEvents(nil, 0); len(got) != 0 {
		t.Fatalf("NextEvents(nil, 0) returned %d events", len(got))
	}
}

// TestNewSiteTrainingsDeterministicAndPinned: per-site sub-streams are
// deterministic in the seed and each event routes to its own site.
func TestNewSiteTrainingsDeterministic(t *testing.T) {
	m := smallModel(t)
	a := NewSiteTrainings(m, 3, 9)
	b := NewSiteTrainings(m, 3, 9)
	for s := 0; s < 3; s++ {
		ea := a[s].NextEvents(nil, 100)
		eb := b[s].NextEvents(nil, 100)
		for j := range ea {
			if ea[j].Site != s || eb[j].Site != s {
				t.Fatalf("site %d event %d routed to %d/%d", s, j, ea[j].Site, eb[j].Site)
			}
			for i := range ea[j].X {
				if ea[j].X[i] != eb[j].X[i] {
					t.Fatalf("site %d event %d not deterministic", s, j)
				}
			}
		}
	}
}

// TestDriveParallelMatchesSequentialReplay: driving a sharded tracker with
// per-site goroutines must produce the same exact counts as replaying the
// same sub-streams into a sequential tracker one site at a time.
func TestDriveParallelMatchesSequentialReplay(t *testing.T) {
	m := smallModel(t)
	const sites, perSite = 4, 1500
	cfg := core.Config{Strategy: core.ExactMLE, Sites: sites, Seed: 5}

	seq, err := core.NewTracker(m.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range NewSiteTrainings(m, sites, 21) {
		for _, ev := range st.NextEvents(nil, perSite) {
			seq.Update(ev.Site, ev.X)
		}
	}

	cfg.Shards = 4
	par, err := core.NewTracker(m.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := DriveParallel(par, NewSiteTrainings(m, sites, 21), perSite, 128)
	if total != sites*perSite || par.Events() != sites*perSite {
		t.Fatalf("ingested %d (tracker %d), want %d", total, par.Events(), sites*perSite)
	}

	net := m.Network()
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				gp, gq := par.ExactCount(i, v, pidx)
				wp, wq := seq.ExactCount(i, v, pidx)
				if gp != wp || gq != wq {
					t.Fatalf("cell (%d,%d,%d) = (%d,%d), want (%d,%d)", i, v, pidx, gp, gq, wp, wq)
				}
			}
		}
	}
	if got, want := par.Messages(), seq.Messages(); got != want {
		t.Errorf("exact-strategy messages = %+v, want %+v", got, want)
	}
}

// exactCellsEqual compares every exact (pair, parent) cell count of two
// trackers over the same network.
func exactCellsEqual(t *testing.T, want, got *core.Tracker) {
	t.Helper()
	net := want.Network()
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				gp, gq := got.ExactCount(i, v, pidx)
				wp, wq := want.ExactCount(i, v, pidx)
				if gp != wp || gq != wq {
					t.Fatalf("cell (%d,%d,%d) = (%d,%d), want (%d,%d)", i, v, pidx, gp, gq, wp, wq)
				}
			}
		}
	}
}

// TestDriveParallelBuffered: the delta-buffered wiring of DriveParallel must
// produce the same exact counts as a sequential replay of the same
// sub-streams, with the tracker fully published when the driver returns.
func TestDriveParallelBuffered(t *testing.T) {
	m := smallModel(t)
	const sites, perSite = 4, 1500
	seq, err := core.NewTracker(m.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range NewSiteTrainings(m, sites, 27) {
		for _, ev := range st.NextEvents(nil, perSite) {
			seq.Update(ev.Site, ev.X)
		}
	}

	buf, err := core.NewTracker(m.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 5,
		Shards: 2, DeltaBuffered: true, DeltaFlushEvents: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := DriveParallel(buf, NewSiteTrainings(m, sites, 27), perSite, 128)
	if total != sites*perSite || buf.Events() != sites*perSite {
		t.Fatalf("ingested %d (tracker %d), want %d — buffered drive must publish before returning",
			total, buf.Events(), sites*perSite)
	}
	exactCellsEqual(t, seq, buf)
}

// TestProduceFeedsIngest wires Produce → Tracker.Ingest with one producer
// per site over a shared channel.
func TestProduceFeedsIngest(t *testing.T) {
	m := smallModel(t)
	const sites, perSite = 3, 1000
	tr, err := core.NewTracker(m.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 5, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan core.Event, 64)
	var wg sync.WaitGroup
	for _, st := range NewSiteTrainings(m, sites, 33) {
		wg.Add(1)
		go func(st *Training) {
			defer wg.Done()
			if n := Produce(context.Background(), st, perSite, ch); n != perSite {
				t.Errorf("Produce sent %d, want %d", n, perSite)
			}
		}(st)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	n, err := tr.Ingest(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if n != sites*perSite || tr.Events() != sites*perSite {
		t.Fatalf("ingested %d (tracker %d), want %d", n, tr.Events(), sites*perSite)
	}
}

// TestProduceCancel: a canceled context unblocks a Produce stuck on a full
// channel.
func TestProduceCancel(t *testing.T) {
	m := smallModel(t)
	st := NewTraining(m, NewFixedAssigner(0), 1)
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan core.Event) // nobody reads
	done := make(chan int64)
	go func() { done <- Produce(ctx, st, 100, ch) }()
	cancel()
	if n := <-done; n >= 100 {
		t.Fatalf("Produce sent %d events with no consumer", n)
	}
}
