package counter

import (
	"bytes"
	"math"
	"testing"

	"distbayes/internal/bn"
)

// bankKinds enumerates the built-in flat kinds with a representative eps.
var bankKinds = []struct {
	name string
	kind Kind
	eps  float64
}{
	{"exact", ExactKind, 0},
	{"hyz", HYZKind, 0.1},
	{"deterministic", DeterministicKind, 0.1},
}

// TestBankMatchesPerCellCounters drives an N-cell bank and N individually
// allocated counters sharing one RNG through the same interleaved schedule
// and asserts bit-identical estimates, exact counts and message tallies —
// the invariant behind the tracker's Shards=1 reproducibility guarantee
// across the flat-layout refactor.
func TestBankMatchesPerCellCounters(t *testing.T) {
	const cells, k, n = 5, 6, 60000
	for _, tc := range bankKinds {
		t.Run(tc.name, func(t *testing.T) {
			var mBank, mCells Metrics
			rngBank := bn.NewRNG(42)
			rngCells := bn.NewRNG(42)

			bank, err := NewBank(tc.kind, cells, k, tc.eps, 0.25, &mBank, rngBank)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]Counter, cells)
			for c := range ref {
				switch tc.kind {
				case ExactKind:
					ref[c] = NewExact(&mCells)
				case HYZKind:
					ref[c], err = NewHYZ(k, tc.eps, 0.25, &mCells, rngCells)
				case DeterministicKind:
					ref[c], err = NewDeterministic(k, tc.eps, &mCells)
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			sched := bn.NewRNG(7)
			for i := 0; i < n; i++ {
				cell, site := sched.Intn(cells), sched.Intn(k)
				bank.Inc(cell, site)
				ref[cell].Inc(site)
				if i%997 == 0 {
					for c := 0; c < cells; c++ {
						if bank.Estimate(c) != ref[c].Estimate() {
							t.Fatalf("step %d cell %d: bank estimate %v != per-cell %v",
								i, c, bank.Estimate(c), ref[c].Estimate())
						}
					}
				}
			}
			for c := 0; c < cells; c++ {
				if bank.Exact(c) != ref[c].Exact() {
					t.Errorf("cell %d: exact %d != %d", c, bank.Exact(c), ref[c].Exact())
				}
				if bank.Estimate(c) != ref[c].Estimate() {
					t.Errorf("cell %d: estimate %v != %v", c, bank.Estimate(c), ref[c].Estimate())
				}
			}
			if mBank.Snapshot() != mCells.Snapshot() {
				t.Errorf("messages: bank %+v != per-cell %+v", mBank.Snapshot(), mCells.Snapshot())
			}
		})
	}
}

// TestBankStateRoundTrip checkpoints a driven bank, restores into a fresh
// one, and verifies identical continued behavior (same RNG position forced
// on both).
func TestBankStateRoundTrip(t *testing.T) {
	const cells, k, n = 4, 5, 40000
	for _, tc := range bankKinds {
		t.Run(tc.name, func(t *testing.T) {
			var m1, m2 Metrics
			rng1 := bn.NewRNG(11)
			a, err := NewBank(tc.kind, cells, k, tc.eps, 0.25, &m1, rng1)
			if err != nil {
				t.Fatal(err)
			}
			sched := bn.NewRNG(3)
			for i := 0; i < n; i++ {
				a.Inc(sched.Intn(cells), sched.Intn(k))
			}
			data, err := a.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			rng2 := bn.NewRNG(99)
			b, err := NewBank(tc.kind, cells, k, tc.eps, 0.25, &m2, rng2)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < cells; c++ {
				if a.Estimate(c) != b.Estimate(c) || a.Exact(c) != b.Exact(c) {
					t.Fatalf("cell %d not restored: %v/%d vs %v/%d",
						c, b.Estimate(c), b.Exact(c), a.Estimate(c), a.Exact(c))
				}
			}
			rng2.SetState(rng1.State())
			for i := 0; i < 10000; i++ {
				cell, site := sched.Intn(cells), sched.Intn(k)
				a.Inc(cell, site)
				b.Inc(cell, site)
				if a.Estimate(cell) != b.Estimate(cell) {
					t.Fatalf("diverged at continued step %d", i)
				}
			}
		})
	}
}

// TestBankStateRejectsMismatch covers the structural validation of bank
// snapshots.
func TestBankStateRejectsMismatch(t *testing.T) {
	var m Metrics
	a, err := NewBank(HYZKind, 3, 4, 0.1, 0.25, &m, bn.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Bank{}
	if b, err := NewBank(HYZKind, 2, 4, 0.1, 0.25, &m, bn.NewRNG(1)); err == nil {
		cases["cell-count"] = b
	}
	if b, err := NewBank(HYZKind, 3, 5, 0.1, 0.25, &m, bn.NewRNG(1)); err == nil {
		cases["site-count"] = b
	}
	if b, err := NewBank(DeterministicKind, 3, 4, 0.1, 0, &m, nil); err == nil {
		cases["kind"] = b
	}
	for name, b := range cases {
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	if err := a.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Error("truncated state accepted")
	}
	if err := a.UnmarshalBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestBankValidation mirrors the constructor validation of the standalone
// counters.
func TestBankValidation(t *testing.T) {
	var m Metrics
	rng := bn.NewRNG(1)
	if _, err := NewBank(HYZKind, 2, 0, 0.1, 0.25, &m, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBank(HYZKind, 2, 4, 0, 0.25, &m, rng); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewBank(HYZKind, 2, 4, math.NaN(), 0.25, &m, rng); err == nil {
		t.Error("eps=NaN accepted")
	}
	if _, err := NewBank(HYZKind, 2, 4, 0.1, 0.25, &m, nil); err == nil {
		t.Error("nil rng accepted for randomized bank")
	}
	if _, err := NewBank(HYZKind, -1, 4, 0.1, 0.25, &m, rng); err == nil {
		t.Error("negative cells accepted")
	}
	if _, err := NewBank(Kind(99), 2, 4, 0.1, 0.25, &m, rng); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := NewBank(ExactKind, 2, 4, 0, 0, nil, nil); err == nil {
		t.Error("nil metrics accepted")
	}
}

// TestCustomBank exercises the CounterFactory extension path: cells are
// interface counters, and checkpointing round-trips through the cells' own
// marshalers.
func TestCustomBank(t *testing.T) {
	var m Metrics
	b, err := NewCustomBank(3, func(int) (Counter, error) { return NewExact(&m), nil })
	if err != nil {
		t.Fatal(err)
	}
	if b.Cells() != 3 {
		t.Fatalf("cells = %d", b.Cells())
	}
	for i := 0; i < 100; i++ {
		b.Inc(i%3, 0)
	}
	if b.Exact(0) != 34 || b.Exact(1) != 33 || b.Exact(2) != 33 {
		t.Errorf("custom counts = %d/%d/%d", b.Exact(0), b.Exact(1), b.Exact(2))
	}
	if b.Estimate(1) != 33 {
		t.Errorf("custom estimate = %v", b.Estimate(1))
	}
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := NewCustomBank(3, func(int) (Counter, error) { return NewExact(&m), nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if b2.Exact(c) != b.Exact(c) {
			t.Errorf("cell %d restored %d, want %d", c, b2.Exact(c), b.Exact(c))
		}
	}
	// A custom cell without marshal support makes the bank uncheckpointable.
	type bare struct{ Counter }
	nb, err := NewCustomBank(1, func(int) (Counter, error) { return bare{NewExact(&m)}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nb.MarshalBinary(); err == nil {
		t.Error("unmarshalable custom cell accepted")
	}
}

// TestIncBatchMatchesInc drives twin banks that share a seed — one through
// Inc per pair, one through IncBatch over runs of mixed lengths — and asserts
// bit-identical state bytes, estimates, RNG position and message tallies for
// the three flat kinds and a custom bank of randomized cells: IncBatch is a
// faster spelling of the same increments in the same order, nothing else.
func TestIncBatchMatchesInc(t *testing.T) {
	const cells, k, n = 5, 6, 60000
	custom := struct {
		name string
		kind Kind
		eps  float64
	}{"custom", customKind, 0.1}
	for _, tc := range append(bankKinds[:len(bankKinds):len(bankKinds)], custom) {
		t.Run(tc.name, func(t *testing.T) {
			var tallies [2]Metrics
			var rngs [2]*bn.RNG
			var banks [2]*Bank
			for j := range banks {
				var err error
				rngs[j] = bn.NewRNG(42)
				if tc.kind == customKind {
					banks[j], err = NewCustomBank(cells, func(int) (Counter, error) {
						return NewHYZ(k, tc.eps, 0.25, &tallies[j], rngs[j])
					})
				} else {
					banks[j], err = NewBank(tc.kind, cells, k, tc.eps, 0.25, &tallies[j], rngs[j])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			one, bulk := banks[0], banks[1]

			sched := bn.NewRNG(7)
			var runCells, runSites []int32
			for done := 0; done < n; {
				// Run lengths 0..70 straddle the tracker's 64-event passes;
				// every seventh run hammers one cell, as a skewed CPT does.
				m := min(sched.Intn(71), n-done)
				runCells, runSites = runCells[:0], runSites[:0]
				hot := sched.Intn(7) == 0
				for i := 0; i < m; i++ {
					cell := sched.Intn(cells)
					if hot {
						cell = 0
					}
					runCells = append(runCells, int32(cell))
					runSites = append(runSites, int32(sched.Intn(k)))
				}
				for i, c := range runCells {
					one.Inc(int(c), int(runSites[i]))
				}
				bulk.IncBatch(runCells, runSites)
				done += m

				if tallies[0] != tallies[1] {
					t.Fatalf("after %d increments: tallies %+v (Inc) != %+v (IncBatch)", done, tallies[0], tallies[1])
				}
				for c := 0; c < cells; c++ {
					if one.Estimate(c) != bulk.Estimate(c) || one.Exact(c) != bulk.Exact(c) {
						t.Fatalf("after %d increments, cell %d: Inc %v/%d != IncBatch %v/%d",
							done, c, one.Estimate(c), one.Exact(c), bulk.Estimate(c), bulk.Exact(c))
					}
				}
			}
			if rngs[0].State() != rngs[1].State() {
				t.Error("RNG positions differ: IncBatch drew a different number of coins")
			}
			a, err := one.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			b, err := bulk.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("state bytes differ between Inc and IncBatch twins")
			}
			if tc.kind != ExactKind && tallies[0].CoordToSite == 0 {
				t.Error("schedule never left exact mode; the sampling path went untested")
			}
		})
	}
}

// BenchmarkBankIncBatch compares the two spellings of the ingest write — Inc
// per pair against one IncBatch per 64-pair run — on a randomized bank in
// exact mode (every increment forwards a message: the tally is the cost) and
// in sampling mode (an RNG draw per increment). ns/op is ns per increment.
func BenchmarkBankIncBatch(b *testing.B) {
	const cells, k, run = 256, 30, 64
	sched := bn.NewRNG(3)
	runCells, runSites := make([]int32, 1<<16), make([]int32, 1<<16)
	for i := range runCells {
		runCells[i], runSites[i] = int32(sched.Intn(cells)), int32(sched.Intn(k))
	}
	for _, mode := range []struct {
		name string
		eps  float64 // exact mode lasts until √k/ε increments per cell
	}{{"exact-mode", 1e-9}, {"sampling-mode", 0.1}} {
		newBank := func(b *testing.B) *Bank {
			var m Metrics
			bank, err := NewBank(HYZKind, cells, k, mode.eps, 0.25, &m, bn.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			bank.IncBatch(runCells, runSites) // sampling mode: past every cell's threshold
			return bank
		}
		b.Run(mode.name+"/Inc", func(b *testing.B) {
			bank := newBank(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (len(runCells) - 1)
				bank.Inc(int(runCells[j]), int(runSites[j]))
			}
		})
		b.Run(mode.name+"/IncBatch", func(b *testing.B) {
			bank := newBank(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += run {
				j := i & (len(runCells) - 1)
				bank.IncBatch(runCells[j:j+run], runSites[j:j+run])
			}
		})
	}
}
