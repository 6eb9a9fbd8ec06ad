package core

import (
	"context"
	"sync"
	"testing"

	"distbayes/internal/bn"
)

// allStrategies are the tracker strategies the equivalence suite covers.
var allStrategies = []Strategy{ExactMLE, Baseline, Uniform, NonUniform, NaiveBayes}

// genEvents samples n events from m and routes them to uniformly random
// sites, each event with its own backing array (the reference stream shared
// by every tracker in a test).
func genEventStream(m *bn.Model, sites, n int, seed uint64) []Event {
	sampler := m.NewSampler(seed)
	rng := bn.NewRNG(seed ^ 0xdead)
	evs := make([]Event, n)
	for j := range evs {
		x := make([]int, m.Network().Len())
		sampler.Sample(x)
		evs[j] = Event{Site: rng.Intn(sites), X: x}
	}
	return evs
}

// cellCounts snapshots ExactCount for every (variable, value, pidx) cell.
func cellCounts(t *testing.T, tr *Tracker) [][2]int64 {
	t.Helper()
	net := tr.Network()
	var out [][2]int64
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				pc, qc := tr.ExactCount(i, v, pidx)
				out = append(out, [2]int64{pc, qc})
			}
		}
	}
	return out
}

// queryAll evaluates QueryProb over every full assignment of the (small)
// test network.
func queryAll(tr *Tracker) []float64 {
	net := tr.Network()
	var out []float64
	x := make([]int, net.Len())
	var rec func(int)
	rec = func(i int) {
		if i == net.Len() {
			out = append(out, tr.QueryProb(x))
			return
		}
		for v := 0; v < net.Card(i); v++ {
			x[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

func cfgFor(st Strategy, shards int) Config {
	return Config{Strategy: st, Eps: 0.15, Delta: 0.25, Sites: 4, Seed: 42, Shards: shards}
}

// TestConcurrentShardedExactCounts partitions one stream by site and feeds a
// multi-stripe tracker from one goroutine per site. Exact counts are
// order-independent, so they must match the sequential reference for every
// strategy under any interleaving; for ExactMLE (whose message accounting
// and query answers are also order-independent) full equality is asserted.
func TestConcurrentShardedExactCounts(t *testing.T) {
	m := testModel(t)
	const sites, events = 4, 12000
	evs := genEventStream(m, sites, events, 11)

	bySite := make([][][]int, sites)
	for _, ev := range evs {
		bySite[ev.Site] = append(bySite[ev.Site], ev.X)
	}

	for _, st := range allStrategies {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			seq, err := NewTracker(m.Network(), cfgFor(st, 0))
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				seq.Update(ev.Site, ev.X)
			}

			conc, err := NewTracker(m.Network(), cfgFor(st, 3))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for site := 0; site < sites; site++ {
				wg.Add(1)
				go func(site int) {
					defer wg.Done()
					// Interleave small batches and single updates to stress
					// both entry points under the race detector.
					xs := bySite[site]
					for lo := 0; lo < len(xs); {
						if lo%3 == 0 {
							conc.Update(site, xs[lo])
							lo++
							continue
						}
						hi := min(lo+50, len(xs))
						conc.UpdateBatch(site, xs[lo:hi])
						lo = hi
					}
				}(site)
			}
			// Exercise concurrent reads while ingestion is in flight.
			q := make([]int, m.Network().Len())
			for i := 0; i < 100; i++ {
				_ = conc.QueryProb(q)
				_ = conc.Messages()
				_, _ = conc.ExactCount(0, 0, 0)
			}
			wg.Wait()

			if conc.Events() != seq.Events() {
				t.Fatalf("events = %d, want %d", conc.Events(), seq.Events())
			}
			wantCells := cellCounts(t, seq)
			gotCells := cellCounts(t, conc)
			for c := range wantCells {
				if gotCells[c] != wantCells[c] {
					t.Fatalf("cell %d counts = %v, want %v", c, gotCells[c], wantCells[c])
				}
			}
			if st == ExactMLE {
				if got, want := conc.Messages(), seq.Messages(); got != want {
					t.Errorf("messages = %+v, want %+v", got, want)
				}
				gotQ, wantQ := queryAll(conc), queryAll(seq)
				for i := range wantQ {
					if gotQ[i] != wantQ[i] {
						t.Fatalf("query %d = %v, want %v", i, gotQ[i], wantQ[i])
					}
				}
			}
		})
	}
}

// TestConcurrentIngestPumps runs several Ingest pumps draining one shared
// channel into a sharded tracker; the union of ingested events must account
// for every event exactly once.
func TestConcurrentIngestPumps(t *testing.T) {
	m := testModel(t)
	const events = 8000
	evs := genEventStream(m, 4, events, 13)

	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 2))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Event, 128)
	go func() {
		for _, ev := range evs {
			ch <- ev
		}
		close(ch)
	}()
	var wg sync.WaitGroup
	var total int64
	var mu sync.Mutex
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := tr.Ingest(context.Background(), ch)
			if err != nil {
				t.Errorf("Ingest: %v", err)
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != events || tr.Events() != events {
		t.Fatalf("pumps ingested %d (tracker %d), want %d", total, tr.Events(), events)
	}

	// Exact per-cell totals must match a sequential replay.
	seq, err := NewTracker(m.Network(), cfgFor(NonUniform, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		seq.Update(ev.Site, ev.X)
	}
	want := cellCounts(t, seq)
	got := cellCounts(t, tr)
	for c := range want {
		if got[c][0] != want[c][0] || got[c][1] != want[c][1] {
			t.Fatalf("cell %d counts = %v, want %v", c, got[c], want[c])
		}
	}
}

// TestIngestCancel verifies an Ingest pump unblocks on context cancellation
// and reports the cancellation error.
func TestIngestCancel(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan Event) // never written, never closed
	done := make(chan struct{})
	var n int64
	var ierr error
	go func() {
		n, ierr = tr.Ingest(ctx, ch)
		close(done)
	}()
	cancel()
	<-done
	if ierr != context.Canceled {
		t.Errorf("Ingest error = %v, want context.Canceled", ierr)
	}
	if n != 0 {
		t.Errorf("ingested %d events from an empty channel", n)
	}
}

// TestShardsClampedToVariables: more stripes than variables must degrade
// gracefully (and keep checkpointing self-consistent).
func TestShardsClampedToVariables(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 64))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 500, 3)
	tr.UpdateEvents(evs)
	if tr.Events() != 500 {
		t.Fatalf("events = %d", tr.Events())
	}
}

// TestShardsValidation rejects negative stripe counts.
func TestShardsValidation(t *testing.T) {
	m := testModel(t)
	if _, err := NewTracker(m.Network(), Config{Strategy: Uniform, Eps: 0.1, Sites: 2, Shards: -1}); err == nil {
		t.Error("negative Shards accepted")
	}
}
