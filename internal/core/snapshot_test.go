package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"distbayes/internal/bn"
)

// refFactor is the per-cell reference the snapshot is checked against: cell
// (i, v, pidx)'s pair and parent estimates read live under i's stripe lock
// and smoothed as (A+s)/(Apar+s·J_i), 0 where that denominator is not
// positive. It reads no snapshot.
func refFactor(t *Tracker, i, v, pidx int) float64 {
	j, s := t.net.Card(i), t.cfg.Smoothing
	sh := t.stripeOf(i)
	sh.mu.Lock()
	num, den := t.pair[i].Estimate(pidx*j+v), t.par[i].Estimate(pidx)
	sh.mu.Unlock()
	num += s
	den += s * float64(j)
	if den <= 0 {
		return 0
	}
	return num / den
}

// rawRows copies variable i's raw pair (pidx*J_i+v) and parent (pidx)
// estimates under i's stripe lock, one bulk read per bank.
func rawRows(t *Tracker, i int) (pair, par []float64) {
	j, k := t.net.Card(i), t.net.ParentCard(i)
	pair, par = make([]float64, j*k), make([]float64, k)
	sh := t.stripeOf(i)
	sh.mu.Lock()
	t.pair[i].EstimateRange(0, j*k, pair)
	t.par[i].EstimateRange(0, k, par)
	sh.mu.Unlock()
	return pair, par
}

// perCellQueryProb recomputes QueryProb from refFactor, bypassing the
// snapshot.
func perCellQueryProb(t *Tracker, x []int) float64 {
	p := 1.0
	for i := 0; i < t.net.Len(); i++ {
		p *= refFactor(t, i, x[i], t.net.ParentIndex(i, x))
	}
	return p
}

// TestSnapshotMatchesPerCellReference is the bit-equivalence guarantee of
// the snapshot read path: once ingestion has returned, every answer served
// from the model snapshot must be bit-identical to per-cell live reads
// (refFactor), for every strategy, on the sequential and the striped engine,
// and with and without smoothing.
func TestSnapshotMatchesPerCellReference(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	evs := genEventStream(m, 4, 15000, 21)
	for _, shards := range []int{1, 4} {
		for _, smoothing := range []float64{0, 0.5} {
			for _, st := range allStrategies {
				cfg := cfgFor(st, shards)
				cfg.Smoothing = smoothing
				tr, err := NewTracker(net, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for lo := 0; lo < len(evs); lo += 100 {
					tr.UpdateEvents(evs[lo:min(lo+100, len(evs))])
				}
				checkSnapshotMatchesReference(t, tr)
			}
		}
	}
}

// checkSnapshotMatchesReference compares every snapshot-served answer of a
// quiesced tracker with refFactor, bit for bit.
func checkSnapshotMatchesReference(t *testing.T, tr *Tracker) {
	t.Helper()
	net, cfg := tr.Network(), tr.Config()
	name := fmt.Sprintf("%v shards=%d s=%v", cfg.Strategy, cfg.Shards, cfg.Smoothing)
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				if got, want := tr.QueryCPD(i, v, pidx), refFactor(tr, i, v, pidx); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: QueryCPD(%d,%d,%d) = %v, per-cell %v", name, i, v, pidx, got, want)
				}
			}
		}
	}

	x := make([]int, net.Len())
	var rec func(int)
	rec = func(i int) {
		if i == net.Len() {
			if got, want := tr.QueryProb(x), perCellQueryProb(tr, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: QueryProb(%v) = %v, per-cell %v", name, x, got, want)
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
	want := 1.0
	for _, i := range set {
		want *= refFactor(tr, i, q[i], net.ParentIndex(i, q))
	}
	if got := tr.QuerySubsetProb(set, q); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: QuerySubsetProb = %v, per-cell %v", name, got, want)
	}

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
				f[v] = refFactor(tr, i, v, pidx)
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
					t.Fatalf("%s: model CPD(%d,%d,%d) = %v, per-cell %v", name, i, v, pidx, got, want)
				}
			}
		}
	}
}

// TestSnapshotCachingAndInvalidation checks the version protocol: repeated
// queries reuse one snapshot, any ingestion path invalidates it, and
// LoadState drops it.
func TestSnapshotCachingAndInvalidation(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), cfgFor(NonUniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 5000, 5)
	tr.UpdateEvents(evs[:4000])

	q := []int{0, 0, 0}
	_ = tr.QueryProb(q)
	s1 := tr.snap.Load()
	if s1 == nil {
		t.Fatal("no snapshot cached after a query")
	}
	_ = tr.Classify(1, []int{0, 0, 0})
	_ = tr.QueryProb(q)
	if tr.snap.Load() != s1 {
		t.Error("idle queries rebuilt the snapshot")
	}
	m1, _ := tr.EstimatedModel()
	m2, _ := tr.EstimatedModel()
	if m1 != m2 {
		t.Error("EstimatedModel rebuilt between ingest flushes")
	}

	// Ingestion invalidates: the first query after an update rebuilds, and
	// its answer reflects the new state.
	tr.Update(evs[4000].Site, evs[4000].X)
	if got, want := tr.QueryProb(q), perCellQueryProb(tr, q); got != want {
		t.Errorf("first post-update query = %v, per-cell %v (stale snapshot served)", got, want)
	}
	s2 := tr.snap.Load()
	if s2 == s1 {
		t.Error("query after Update did not rebuild the snapshot")
	}
	tr.UpdateBatch(1, [][]int{evs[4001].X})
	_ = tr.QueryProb(q)
	if tr.snap.Load() == s2 {
		t.Error("query after UpdateBatch did not rebuild the snapshot")
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
	_ = tr2.QueryProb(q) // cache an empty-state snapshot
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

// TestEveryMutationBumpsEveryStripe pins the invariant that makes a whole
// rebuild the only rebuild worth having: every ingestion entry point and
// LoadState moves every stripe's version, so no snapshot ever has an
// unchanged stripe whose rows it could share with its predecessor.
func TestEveryMutationBumpsEveryStripe(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	evs := genEventStream(m, 4, 200, 13)
	for _, shards := range []int{1, 4} {
		tr, err := NewTracker(net, cfgFor(NonUniform, shards))
		if err != nil {
			t.Fatal(err)
		}
		tr.UpdateEvents(evs[:100])
		var state bytes.Buffer
		if err := tr.SaveState(&state); err != nil {
			t.Fatal(err)
		}
		mutations := []struct {
			name string
			do   func() error
		}{
			{"Update", func() error { tr.Update(evs[100].Site, evs[100].X); return nil }},
			{"UpdateBatch", func() error { tr.UpdateBatch(2, [][]int{evs[101].X, evs[102].X}); return nil }},
			{"UpdateEvents", func() error { tr.UpdateEvents(evs[103:180]); return nil }},
			{"Ingest", func() error {
				ch := make(chan Event, 20)
				for _, ev := range evs[180:] {
					ch <- ev
				}
				close(ch)
				_, err := tr.Ingest(context.Background(), ch)
				return err
			}},
			{"LoadState", func() error { return tr.LoadState(bytes.NewReader(state.Bytes())) }},
		}
		for _, mu := range mutations {
			before := make([]uint64, len(tr.shards))
			for s := range tr.shards {
				before[s] = tr.shards[s].version.Load()
			}
			if err := mu.do(); err != nil {
				t.Fatal(err)
			}
			for s := range tr.shards {
				if tr.shards[s].version.Load() == before[s] {
					t.Errorf("shards=%d: %s left stripe %d's version at %d", shards, mu.name, s, before[s])
				}
			}
		}
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
// is primed, a steady-state update→query cycle rebuilds into a recycled row
// set instead of allocating one row per variable per rebuild.
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
		_ = tr.QueryProb(q)
	}
	run() // prime the pool with the first retirement
	a := testing.AllocsPerRun(100, run)
	if a >= float64(net.Len()) {
		t.Errorf("steady-state rebuild allocates %v/op, want < %d (rows not recycled?)", a, net.Len())
	}
	t.Logf("steady-state update+rebuild: %v allocs/op", a)
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
// number of successors are built and retired. Retiring a successor recycles
// its row set, never the one the held snapshot still reads — a row set goes
// back to the pool only when its own snapshot's last reference is gone.
func TestHeldSnapshotOutlivesSuccessors(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	tr, err := NewTracker(net, cfgFor(ExactMLE, 3))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 1010, 9)
	tr.UpdateEvents(evs[:1000])
	held := tr.AcquireSnapshot()
	want := factorTables(held)
	// Each round rebuilds and retires the previous successor, whose row set
	// the next rebuild draws from the pool.
	for _, ev := range evs[1000:] {
		tr.Update(ev.Site, ev.X)
		tr.AcquireSnapshot().Release()
	}
	got := factorTables(held)
	for i := range want {
		for c, w := range want[i] {
			if got[i][c] != w {
				t.Fatalf("held snapshot row %d cell %d changed from %v to %v: recycled under a reader", i, c, w, got[i][c])
			}
		}
	}
	held.Release()
}

// TestSnapshotReissue: a reissued handle reads its original's rows bit for
// bit under its own version and release hook, inherits the build time,
// network and structure epoch, and returns the original's model.
func TestSnapshotReissue(t *testing.T) {
	m := testModel(t)
	cfg := cfgFor(NonUniform, 1)
	cfg.Smoothing = 0.5
	tr, err := NewTracker(m.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.UpdateEvents(genEventStream(m, 4, 2000, 3))
	held := tr.AcquireSnapshot()
	defer held.Release()
	var origCalls, hookCalls int
	orig := &Snapshot{net: held.net, est: held.est, smoothing: held.smoothing, version: 7,
		builtAt: held.builtAt, epoch: 3, release: func() { origCalls++ }}
	re := orig.Reissue(42, func() { hookCalls++ })

	want, got := factorTables(orig), factorTables(re)
	for i := range want {
		for c, w := range want[i] {
			if math.Float64bits(got[i][c]) != math.Float64bits(w) {
				t.Fatalf("reissued factor (%d, cell %d) = %v, original %v", i, c, got[i][c], w)
			}
		}
	}
	if re.Version() != 42 || !re.BuiltAt().Equal(orig.BuiltAt()) || re.Network() != orig.Network() || re.StructureEpoch() != 3 {
		t.Errorf("reissued version %d, built %v, epoch %d (network shared: %v); want 42, %v, 3, true",
			re.Version(), re.BuiltAt(), re.StructureEpoch(), re.Network() == orig.Network(), orig.BuiltAt())
	}
	re.Release()
	if hookCalls != 1 || origCalls != 0 {
		t.Errorf("Release ran the hook %d times and the original's release %d times; want 1 and 0", hookCalls, origCalls)
	}
	again := re.Reissue(43, nil)
	again.Release() // a nil hook releases nothing
	mRe, err := re.Model()
	if err != nil {
		t.Fatal(err)
	}
	mOrig, _ := orig.Model()
	if mAgain, _ := again.Model(); mRe != mOrig || mAgain != mOrig {
		t.Errorf("reissued models %p, %p; want the original's %p", mRe, mAgain, mOrig)
	}
	if hookCalls != 1 || origCalls != 0 {
		t.Errorf("after a nil-hook release: hook %d, original %d; want 1 and 0", hookCalls, origCalls)
	}
}
