package core

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"distbayes/internal/bn"
)

// perCellQueryProb recomputes QueryProb through the per-cell reference path
// (cpdFactor), bypassing the snapshot.
func perCellQueryProb(t *Tracker, x []int) float64 {
	p := 1.0
	for i := 0; i < t.net.Len(); i++ {
		p *= t.cpdFactor(i, x[i], t.net.ParentIndex(i, x))
	}
	return p
}

// TestSnapshotMatchesPerCellReference is the bit-equivalence guarantee of
// the batched read path: under Shards=1, every answer served from
// ReadCPDRows / the model snapshot must be bit-identical to the historical
// per-cell cpdFactor reads, for every strategy and with and without
// smoothing.
func TestSnapshotMatchesPerCellReference(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	evs := genEventStream(m, 4, 15000, 21)
	for _, smoothing := range []float64{0, 0.5} {
		for _, st := range allStrategies {
			cfg := cfgFor(st, 1)
			cfg.Smoothing = smoothing
			tr, err := NewTracker(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				tr.Update(ev.Site, ev.X)
			}

			// ReadCPDRows vs per-cell raw reads (ExactCount gives the raw
			// exact path; compare estimates through QueryCPD's smoothing).
			var rows CPDRows
			for i := 0; i < net.Len(); i++ {
				tr.ReadCPDRows(i, &rows)
				j := net.Card(i)
				for pidx := 0; pidx < net.ParentCard(i); pidx++ {
					for v := 0; v < j; v++ {
						want := tr.cpdFactor(i, v, pidx)
						got := smoothedFactor(rows.Pair[pidx*j+v], rows.Par[pidx], smoothing, j)
						if got != want {
							t.Fatalf("%v s=%v: rows factor (%d,%d,%d) = %v, per-cell %v",
								st, smoothing, i, v, pidx, got, want)
						}
					}
				}
			}

			// Snapshot-served entry points vs per-cell recomputation.
			x := make([]int, net.Len())
			var rec func(int)
			rec = func(i int) {
				if i == net.Len() {
					if got, want := tr.QueryProb(x), perCellQueryProb(tr, x); got != want {
						t.Fatalf("%v s=%v: QueryProb(%v) = %v, per-cell %v", st, smoothing, x, got, want)
					}
					return
				}
				for v := 0; v < net.Card(i); v++ {
					x[i] = v
					rec(i + 1)
				}
			}
			rec(0)

			set := net.AncestralClosure([]int{1})
			q := []int{1, 2, 0}
			snap := tr.snapshot()
			want := 1.0
			for _, i := range set {
				want *= tr.cpdFactor(i, q[i], net.ParentIndex(i, q))
			}
			if got := tr.QuerySubsetProb(set, q); got != want {
				t.Fatalf("%v: QuerySubsetProb = %v, per-cell %v", st, got, want)
			}
			_ = snap

			// EstimatedModel vs normalizing the per-cell factors by hand.
			est, err := tr.EstimatedModel()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < net.Len(); i++ {
				j := net.Card(i)
				for pidx := 0; pidx < net.ParentCard(i); pidx++ {
					sum := 0.0
					f := make([]float64, j)
					for v := 0; v < j; v++ {
						f[v] = tr.cpdFactor(i, v, pidx)
						if f[v] < 0 {
							f[v] = 0
						}
						sum += f[v]
					}
					for v := 0; v < j; v++ {
						want := 1 / float64(j)
						if sum > 0 {
							want = f[v] / sum
						}
						if got := est.CPD(i).P(v, pidx); got != want {
							t.Fatalf("%v: model CPD(%d,%d,%d) = %v, per-cell %v", st, i, v, pidx, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSnapshotCachingAndInvalidation checks the version-counter protocol:
// repeated queries reuse one snapshot, any ingestion path invalidates it,
// and LoadState drops it.
func TestSnapshotCachingAndInvalidation(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 5000, 5)
	tr.UpdateEvents(evs[:4000])

	// forceQueries issues enough point queries to pass the stale-query
	// threshold and trigger a rebuild.
	q := []int{0, 0, 0}
	forceQueries := func() {
		for i := 0; i <= staleQueryRebuildThreshold+1; i++ {
			_ = tr.QueryProb(q)
		}
	}
	forceQueries()
	s1 := tr.snap.Load()
	if s1 == nil {
		t.Fatal("no snapshot cached after query burst")
	}
	_ = tr.Classify(1, []int{0, 0, 0})
	_ = tr.QueryProb(q)
	if tr.snap.Load() != s1 {
		t.Error("idle queries rebuilt the snapshot")
	}
	if _, err := tr.EstimatedModel(); err != nil {
		t.Fatal(err)
	}
	m1, _ := tr.EstimatedModel()
	m2, _ := tr.EstimatedModel()
	if m1 != m2 {
		t.Error("EstimatedModel rebuilt between ingest flushes")
	}

	// Ingestion invalidates: after an update, the first few point queries
	// serve per-cell (the cached pointer survives but is ignored), and a
	// burst rebuilds. Answers must reflect the new state immediately.
	tr.Update(evs[4000].Site, evs[4000].X)
	first := tr.QueryProb(q)
	want := perCellQueryProb(tr, q)
	if first != want {
		t.Errorf("first post-update query = %v, per-cell %v (stale snapshot served)", first, want)
	}
	forceQueries()
	if tr.snap.Load() == s1 {
		t.Error("query burst after Update did not rebuild the snapshot")
	}
	s2 := tr.snap.Load()
	tr.UpdateBatch(1, [][]int{evs[4001].X})
	forceQueries()
	if tr.snap.Load() == s2 {
		t.Error("query burst after UpdateBatch did not rebuild the snapshot")
	}

	// LoadState invalidates: the post-restore query must see restored state.
	var buf bytes.Buffer
	if err := tr.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := NewTracker(m.Network(), cfgFor(NonUniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= staleQueryRebuildThreshold+1; i++ {
		_ = tr2.QueryProb(q) // cache an empty-state snapshot
	}
	if tr2.snap.Load() == nil {
		t.Fatal("no pre-restore snapshot cached")
	}
	if err := tr2.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := tr2.QueryProb(q), tr.QueryProb(q); got != want {
		t.Errorf("post-LoadState query = %v, want %v (stale snapshot?)", got, want)
	}
}

// TestSnapshotStripeGranularity: with several stripes, mutating one stripe's
// variables must leave the other stripes' cached rows shared with the
// previous snapshot (pointer equality on the untouched rows).
func TestSnapshotStripeGranularity(t *testing.T) {
	m := testModel(t) // 3 variables
	tr, err := NewTracker(m.Network(), cfgFor(ExactMLE, 3))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 1000, 9)
	tr.UpdateEvents(evs)
	for i := 0; i <= staleQueryRebuildThreshold+1; i++ {
		_ = tr.QueryProb([]int{0, 0, 0})
	}
	s1 := tr.snap.Load()
	if s1 == nil {
		t.Fatal("no snapshot cached")
	}
	// Bump only stripe 1 (variable 1) by hand-incrementing its bank under
	// its lock, as an out-of-band single-stripe mutation would.
	sh := tr.stripeOf(1)
	sh.mu.Lock()
	tr.pair[1].Inc(0, 0)
	tr.par[1].Inc(0, 0)
	sh.version.Add(1)
	sh.mu.Unlock()

	for i := 0; i <= staleQueryRebuildThreshold+1; i++ {
		_ = tr.QueryProb([]int{0, 0, 0})
	}
	s2 := tr.snap.Load()
	if s2 == s1 {
		t.Fatal("snapshot not rebuilt")
	}
	if &s2.factors[0][0] != &s1.factors[0][0] || &s2.factors[2][0] != &s1.factors[2][0] {
		t.Error("untouched stripes were rebuilt instead of shared")
	}
	if &s2.factors[1][0] == &s1.factors[1][0] {
		t.Error("dirty stripe row was not rebuilt")
	}
}

// poolTestNet builds a 40-variable chain network — wide enough that the
// row-pool assertions below have signal (a rebuild without pooling would
// allocate one row per variable).
func poolTestNet(t *testing.T) *bn.Network {
	t.Helper()
	vars := make([]bn.Variable, 40)
	for i := range vars {
		vars[i] = bn.Variable{Name: string(rune('A'+i%26)) + string(rune('0'+i/26)), Card: 2 + i%3}
		if i > 0 {
			vars[i].Parents = []int{i - 1}
		}
	}
	net, err := bn.NewNetwork(vars)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestSnapshotRowPooling is the snapshot-pooling allocation contract:
// warm queries against a cached snapshot allocate nothing, and once the pool
// is primed, a steady-state update→query-burst cycle rebuilds its dirty rows
// from recycled storage instead of allocating one row per variable per
// rebuild.
func TestSnapshotRowPooling(t *testing.T) {
	net := poolTestNet(t)
	tr, err := NewTracker(net, Config{Strategy: NonUniform, Eps: 0.1, Sites: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := bn.NewRNG(99)
	sample := func() []int {
		x := make([]int, net.Len())
		for i := range x {
			x[i] = rng.Intn(net.Card(i))
		}
		return x
	}
	for i := 0; i < 4000; i++ {
		tr.Update(rng.Intn(4), sample())
	}
	q := make([]int, net.Len())

	// Warm path: cached snapshot, zero allocations.
	_ = tr.QueryProb(q)
	if a := testing.AllocsPerRun(200, func() { _ = tr.QueryProb(q) }); a != 0 {
		t.Errorf("warm QueryProb allocates %v/op, want 0", a)
	}

	// Steady state: each run dirties every stripe and forces one rebuild.
	// Without pooling that is ≥ net.Len() row allocations per run; with the
	// retired predecessor's rows recycled it is a handful of fixed-size
	// snapshot bookkeeping allocations.
	x := sample()
	run := func() {
		tr.Update(1, x)
		for i := 0; i <= staleQueryRebuildThreshold+1; i++ {
			_ = tr.QueryProb(q)
		}
	}
	run() // prime the pool with the first retirement
	if a := testing.AllocsPerRun(100, run); a >= float64(net.Len()) {
		t.Errorf("steady-state rebuild allocates %v/op, want < %d (rows not recycled?)", a, net.Len())
	}
}

// TestSnapshotRetirementSafety hammers queries from several goroutines while
// ingestion forces constant rebuilds and retirements: under -race this
// proves recycled rows are never handed out while a reader still holds the
// retired snapshot, and the validity checks catch any reuse-corruption
// (a clobbered row would yield probabilities outside [0, 1]).
func TestSnapshotRetirementSafety(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 3))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 8000, 61)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, ev := range evs {
			tr.Update(ev.Site, ev.X)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := make([]int, m.Network().Len())
			for i := 0; i < 2000; i++ {
				if p := tr.QueryProb(x); math.IsNaN(p) || p < 0 || p > 1.0000001 {
					t.Errorf("QueryProb = %v (recycled row read?)", p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLoadStateQueryRaceNoDeadlock pins the LoadState lock order: LoadState
// takes rebuildMu before the stripe locks (the same order snapshot rebuilds
// use), so queries racing a restore block briefly instead of deadlocking.
// Before the ordering fix this hung within a few iterations: LoadState held
// every stripe lock while waiting on rebuildMu, which a stale-snapshot
// query held while waiting on a stripe lock.
func TestLoadStateQueryRaceNoDeadlock(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range genEventStream(m, 4, 3000, 77) {
		tr.Update(ev.Site, ev.X)
	}
	var state bytes.Buffer
	if err := tr.SaveState(&state); err != nil {
		t.Fatal(err)
	}
	raw := state.Bytes()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := make([]int, m.Network().Len())
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = tr.QueryProb(x)
				_, _ = tr.EstimatedModel()
			}
		}()
	}
	fin := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := tr.LoadState(bytes.NewReader(raw)); err != nil {
				fin <- err
				return
			}
			// Dirty a stripe so the racing queries keep forcing rebuilds.
			tr.Update(0, make([]int, m.Network().Len()))
		}
		fin <- nil
	}()
	select {
	case err := <-fin:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("LoadState racing queries did not finish: lock-order deadlock?")
	}
	close(done)
	wg.Wait()
}

// TestIngestCancelFlushesPending: a canceled Ingest pump must flush events
// it already took off the channel so the returned count matches the counter
// state.
func TestIngestCancelFlushesPending(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 10, 17)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan Event)
	done := make(chan struct{})
	var n int64
	var ierr error
	go func() {
		n, ierr = tr.Ingest(ctx, ch)
		close(done)
	}()
	for _, ev := range evs {
		ch <- ev
	}
	cancel() // channel never closed: only cancellation can end the pump
	<-done
	if ierr == nil {
		t.Fatal("Ingest returned nil error on cancellation")
	}
	if n != tr.Events() {
		t.Errorf("Ingest reported %d events but tracker counted %d", n, tr.Events())
	}
	if tr.Events() != int64(len(evs)) {
		t.Errorf("tracker counted %d events, want %d (pending batch dropped?)", tr.Events(), len(evs))
	}
}

// TestConcurrentSnapshotQueries hammers the snapshot path from several
// goroutines while another goroutine ingests — run under -race this proves
// the copy-on-write publication is clean, and every answer must equal a
// per-cell read taken at some consistent point (here just checked for
// validity: probabilities in [0,1]).
func TestConcurrentSnapshotQueries(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 3))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 6000, 23)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(evs); lo += 100 {
			tr.UpdateEvents(evs[lo:min(lo+100, len(evs))])
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := make([]int, m.Network().Len())
			for i := 0; i < 300; i++ {
				p := tr.QueryProb(x)
				if math.IsNaN(p) || p < 0 || p > 1.0000001 {
					t.Errorf("QueryProb = %v", p)
					return
				}
				_ = tr.Classify(g%3, x)
				if _, err := tr.EstimatedModel(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHeldSnapshotOutlivesSuccessors: a reader may hold a snapshot while any
// number of successors are built and retired. A successor shares the rows of
// the stripes that did not change; retiring it must not recycle rows an older,
// still-held snapshot reads — a row goes back to the pool only when the last
// snapshot that references it is gone.
func TestHeldSnapshotOutlivesSuccessors(t *testing.T) {
	m := testModel(t) // 3 variables, one per stripe
	net := m.Network()
	tr, err := NewTracker(net, cfgFor(ExactMLE, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr.UpdateEvents(genEventStream(m, 4, 1000, 9))
	held := tr.AcquireSnapshot()
	var want [][]float64
	for i := 0; i < net.Len(); i++ {
		want = append(want, append([]float64(nil), held.factors[i]...))
	}
	// bump dirties one stripe by hand, as an out-of-band single-stripe
	// mutation would, and rebuilds.
	bump := func(i int) {
		sh := tr.stripeOf(i)
		sh.mu.Lock()
		tr.pair[i].Inc(0, 0)
		tr.par[i].Inc(0, 0)
		sh.version.Add(1)
		sh.mu.Unlock()
		tr.AcquireSnapshot().Release()
	}
	bump(1) // the successor shares held's rows 0 and 2
	bump(0) // retires that successor, the only other user of held's row 0
	bump(0) // a rebuild of row 0 draws from the pool
	bump(2)
	bump(2)
	for i := range want {
		for c, w := range want[i] {
			if got := held.factors[i][c]; got != w {
				t.Fatalf("held snapshot row %d cell %d changed from %v to %v: recycled under a reader", i, c, w, got)
			}
		}
	}
	held.Release()
}
