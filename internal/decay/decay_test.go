package decay

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// binary2 is a one-variable network X ∈ {0, 1}: pair cells 0 and 1 count the
// two values, parent cell 0 counts every event.
var binary2 = bn.MustNetwork([]bn.Variable{{Name: "X", Card: 2}})

func mustNew(t *testing.T, net *bn.Network, cfg core.Config, opt Options) *Tracker {
	t.Helper()
	tr, err := New(net, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// rows returns variable i's decayed raw rows, d + live.
func (t *Tracker) rows(i int) core.CPDRows {
	var rows core.CPDRows
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rowsLocked(i, &rows)
	return rows
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Gamma: 0, BlockEvents: 10},
		{Gamma: 1.5, BlockEvents: 10},
		{Gamma: 0.9, BlockEvents: 0},
	}
	for i, o := range bad {
		if _, err := New(binary2, core.Config{Strategy: core.ExactMLE, Sites: 2}, o); err == nil {
			t.Errorf("options %d accepted: %+v", i, o)
		}
	}
	if _, err := New(binary2, core.Config{Strategy: core.ExactMLE}, Options{Gamma: 0.5, BlockEvents: 1}); err == nil {
		t.Error("tracker config with no sites accepted")
	}
}

// TestDecayedCounterGeometricDecay: a block of 100 increments of X=0 is worth
// 50 after one rotation, and keeps halving while X=0 stays idle.
func TestDecayedCounterGeometricDecay(t *testing.T) {
	tr := mustNew(t, binary2, core.Config{Strategy: core.ExactMLE, Sites: 1}, Options{Gamma: 0.5, BlockEvents: 100})
	for i := 0; i < 100; i++ {
		tr.Update(0, []int{0})
	}
	if got := tr.rows(0).Pair[0]; got != 50 {
		t.Errorf("after one rotation: %v, want 50", got)
	}
	// Three more blocks of X=1 leave X=0 idle: 50 -> 25 -> 12.5 -> 6.25.
	for i := 0; i < 300; i++ {
		tr.Update(0, []int{1})
	}
	r := tr.rows(0)
	if r.Pair[0] != 6.25 {
		t.Errorf("after four rotations: %v, want 6.25", r.Pair[0])
	}
	// X=1 was counted in blocks 2-4 and has been folded three times.
	if want := 0.5 * (0.5*(0.5*100+100) + 100); r.Pair[1] != want || r.Par[0] != r.Pair[0]+r.Pair[1] {
		t.Errorf("X=1 / parent rows %v / %v, want %v / their sum", r.Pair[1], r.Par[0], want)
	}
}

// TestDecayedCounterApproximateSubcounters runs randomized counters (rounds
// open within every block) and compares every decayed cell with the decayed
// truth folded in the test from the exact per-block counts.
func TestDecayedCounterApproximateSubcounters(t *testing.T) {
	const sites, block, gamma, events = 8, 5000, 0.9, 60000
	tr := mustNew(t, binary2, core.Config{Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 3},
		Options{Gamma: gamma, BlockEvents: block})
	var truth, live [3]float64 // pair 0, pair 1, parent
	for i := 0; i < events; i++ {
		x := 1
		if i%10 < 3 {
			x = 0
		}
		tr.Update(i%sites, []int{x})
		live[x]++
		live[2]++
		if (i+1)%block == 0 {
			for c := range truth {
				truth[c], live[c] = gamma*(truth[c]+live[c]), 0
			}
		}
	}
	r := tr.rows(0)
	for c, got := range []float64{r.Pair[0], r.Pair[1], r.Par[0]} {
		want := truth[c] + live[c]
		if rel := math.Abs(got-want) / want; rel > 0.3 {
			t.Errorf("cell %d: decayed estimate %v, truth %v (off by %v)", c, got, want, rel)
		}
	}
	if tr.Messages().CoordToSite == 0 {
		t.Error("no round ever opened; the randomized path went untested")
	}
}

// TestDriftAdaptation feeds a tracker data from model A, then from a shifted
// model B; the decayed tracker must follow B while the plain tracker stays
// stuck between the two.
func TestDriftAdaptation(t *testing.T) {
	cptA, _ := bn.NewCPT(2, 1, []float64{0.9, 0.1})
	cptB, _ := bn.NewCPT(2, 1, []float64{0.1, 0.9})
	modelA := bn.MustModel(binary2, []*bn.CPT{cptA})
	modelB := bn.MustModel(binary2, []*bn.CPT{cptB})

	cfg := core.Config{Strategy: core.ExactMLE, Sites: 2}
	decayed := mustNew(t, binary2, cfg, Options{Gamma: 0.3, BlockEvents: 2000})
	plain, err := core.NewTracker(binary2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	feed := func(m *bn.Model, events int, seed uint64) {
		s := m.NewSampler(seed)
		x := make([]int, 1)
		for e := 0; e < events; e++ {
			s.Sample(x)
			decayed.Update(e%2, x)
			plain.Update(e%2, x)
		}
	}
	feed(modelA, 20000, 5)
	feed(modelB, 20000, 6)

	// P[X=1] is 0.9 under the recent distribution.
	decayedP := decayed.Snapshot().Factor(0, 1, 0)
	plainP := plain.QueryCPD(0, 1, 0)
	if math.Abs(decayedP-0.9) > 0.05 {
		t.Errorf("decayed tracker P[X=1] = %v, want ~0.9", decayedP)
	}
	if math.Abs(plainP-0.5) > 0.05 {
		t.Errorf("plain tracker P[X=1] = %v, want ~0.5 (stuck on history)", plainP)
	}
}

// TestBankTicksAndMultipleCounters: all of the tracker's banks tick on one
// block clock — over 25 events in blocks of 10, every cell has been folded
// twice, whatever its own increments.
func TestBankTicksAndMultipleCounters(t *testing.T) {
	tr := mustNew(t, binary2, core.Config{Strategy: core.ExactMLE, Sites: 1}, Options{Gamma: 0.8, BlockEvents: 10})
	for i := 0; i < 25; i++ {
		tr.Update(0, []int{i % 2})
	}
	if tr.ticks.Load() != 25 {
		t.Errorf("ticks = %d", tr.ticks.Load())
	}
	r := tr.rows(0)
	// X=0 counts 5, 5 and 3 per block; the parent 10, 10 and 5.
	if want := 0.8*(0.8*5+5) + 3; math.Abs(r.Pair[0]-want) > 1e-9 {
		t.Errorf("X=0: %v, want %v", r.Pair[0], want)
	}
	if want := 0.8*(0.8*10+10) + 5; math.Abs(r.Par[0]-want) > 1e-9 {
		t.Errorf("parent: %v, want %v", r.Par[0], want)
	}
}

// TestDecayedTableBitIdentity pins the decayed tracker to values recorded at
// the commit before decay moved out of the counters (when every cell was a
// decayed per-cell counter plugged into the tracker's banks): an
// FNV-64a of the Float64bits of every smoothed CPD cell and the message
// tally, on the ablation-decay stream (ALARM, NonUniform, ε = 0.1, drift at
// m/2, γ = 0.5). The first case is the golden's parameters (-events 20000
// -sites 5 -seed 7: block 1 250, no round ever opens); the second opens
// rounds in every block.
func TestDecayedTableBitIdentity(t *testing.T) {
	net, err := netgen.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	model := func(seed uint64) *bn.Model {
		opt := netgen.DefaultCPTOptions()
		opt.Seed = seed
		cpds, err := netgen.GenCPTs(net, opt)
		if err != nil {
			t.Fatal(err)
		}
		return bn.MustModel(net, cpds)
	}
	for _, tc := range []struct {
		sites              int
		seed               uint64
		events, blocksHalf int
		hash               uint64
		msgs               counter.Metrics
	}{
		{5, 7, 20000, 8, 0x942cbe5f37271f07, counter.Metrics{SiteToCoord: 1480000}},
		{4, 3, 60000, 4, 0x3ca4552b818f97c8, counter.Metrics{SiteToCoord: 4407784, CoordToSite: 2948}},
	} {
		half := tc.events / 2
		tr := mustNew(t, net, core.Config{Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25, Sites: tc.sites, Seed: tc.seed},
			Options{Gamma: 0.5, BlockEvents: int64(half / tc.blocksHalf)})
		feed := func(m *bn.Model, n int, seed uint64) {
			training := stream.NewTraining(m, stream.NewUniformAssigner(tc.sites, seed), seed+1)
			for e := 0; e < n; e++ {
				tr.Update(training.Next())
			}
		}
		feed(model(tc.seed+100), half, tc.seed+11)
		feed(model(tc.seed+200), tc.events-half, tc.seed+13)

		snap := tr.Snapshot()
		h := fnv.New64a()
		for i := 0; i < net.Len(); i++ {
			for pidx := 0; pidx < net.ParentCard(i); pidx++ {
				for v := 0; v < net.Card(i); v++ {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(snap.Factor(i, v, pidx))))
				}
			}
		}
		if got := h.Sum64(); got != tc.hash {
			t.Errorf("sites=%d seed=%d: CPD hash %#x, recorded %#x", tc.sites, tc.seed, got, tc.hash)
		}
		if got := tr.Messages(); got != tc.msgs {
			t.Errorf("sites=%d seed=%d: messages %+v, recorded %+v", tc.sites, tc.seed, got, tc.msgs)
		}
	}
}

// TestRotationMayRaceIngest: rotations run under the tracker's stripe locks,
// so two writers may cross many block boundaries while they ingest. With
// γ = 1 nothing decays, so every variable's parent row, d + live, sums to
// the events ingested, and ExactMLE sends 2n messages per event.
func TestRotationMayRaceIngest(t *testing.T) {
	m, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, batch = 2, 40, 37
	net := m.Network()
	tr := mustNew(t, net, core.Config{Strategy: core.ExactMLE, Sites: 4, Shards: 3}, Options{Gamma: 1, BlockEvents: 50})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			training := stream.NewTraining(m, stream.NewUniformAssigner(4, uint64(w)), uint64(w)+1)
			for b := 0; b < batches; b++ {
				tr.UpdateEvents(training.NextEvents(nil, batch))
				if b%7 == 0 {
					tr.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	const events = writers * batches * batch
	for i := 0; i < net.Len(); i++ {
		var sum float64
		for _, c := range tr.rows(i).Par {
			sum += c
		}
		if sum != events {
			t.Fatalf("variable %d: parent row sums to %v, want %d", i, sum, events)
		}
	}
	if want := (counter.Metrics{SiteToCoord: 2 * int64(net.Len()) * events}); tr.Messages() != want {
		t.Errorf("messages = %+v, want %+v", tr.Messages(), want)
	}
}
