package counter

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"testing"
	"unsafe"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

// bankKinds enumerates the built-in kinds with a representative eps.
var bankKinds = []struct {
	name string
	kind Kind
	eps  float64
}{
	{"exact", ExactKind, 0},
	{"hyz", HYZKind, 0.1},
}

// TestBankMatchesPerCellCounters drives an N-cell bank and N one-cell banks
// sharing one RNG through the same interleaved schedule and asserts
// bit-identical estimates, exact counts and message tallies — the invariant
// behind the tracker's Shards=1 reproducibility guarantee across the
// flat-layout refactor.
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
			ref := make([]*Bank, cells)
			for c := range ref {
				ref[c] = newCell(t, tc.kind, k, tc.eps, &mCells, rngCells)
			}

			sched := bn.NewRNG(7)
			for i := 0; i < n; i++ {
				cell, site := sched.Intn(cells), sched.Intn(k)
				bank.Inc(cell, site)
				ref[cell].Inc(0, site)
				if i%997 == 0 {
					for c := 0; c < cells; c++ {
						if bank.Estimate(c) != ref[c].Estimate(0) {
							t.Fatalf("step %d cell %d: bank estimate %v != one-cell %v",
								i, c, bank.Estimate(c), ref[c].Estimate(0))
						}
					}
				}
			}
			for c := 0; c < cells; c++ {
				if bank.Exact(c) != ref[c].Exact(0) || bank.Estimate(c) != ref[c].Estimate(0) {
					t.Errorf("cell %d: exact/estimate %d/%v, one-cell %d/%v", c, bank.Exact(c), bank.Estimate(c), ref[c].Exact(0), ref[c].Estimate(0))
				}
			}
			if mBank.Snapshot() != mCells.Snapshot() {
				t.Errorf("messages: bank %+v != one-cell %+v", mBank, mCells)
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
	if b, err := NewBank(ExactKind, 3, 4, 0, 0, &m, nil); err == nil {
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

// TestBankValidation covers the constructor's validation.
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

// TestIncBatchMatchesInc drives twin banks that share a seed — one through
// Inc per pair, one through IncBatch over runs of mixed lengths — and asserts
// bit-identical state bytes, estimates, RNG position and message tallies for
// every kind: IncBatch is a faster spelling of the same increments in the
// same order, nothing else. The one-way kind has no state record, so its
// twins' per-site state is compared in memory.
func TestIncBatchMatchesInc(t *testing.T) {
	const cells, k, n = 5, 6, 60000
	kinds := append(slices.Clone(bankKinds), struct {
		name string
		kind Kind
		eps  float64
	}{"oneway", OneWayKind, 0.1})
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			var tallies [2]Metrics
			var rngs [2]*bn.RNG
			var banks [2]*Bank
			for j := range banks {
				var err error
				rngs[j] = bn.NewRNG(42)
				if banks[j], err = NewBank(tc.kind, cells, k, tc.eps, 0.25, &tallies[j], rngs[j]); err != nil {
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
			if tc.kind == OneWayKind {
				if !slices.Equal(one.sites, bulk.sites) {
					t.Error("per-site state differs between Inc and IncBatch twins")
				}
				if tallies[0].SiteToCoord == n {
					t.Error("every increment reported; the sampling path went untested")
				}
				return
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

// --- the dense layout, kept as the oracle of the record layout ---

// denseBank is the HYZ protocol on the layout banks had before round records
// were lazy: one plane per field, every plane allocated for every cell up
// front and indexed by cell, with a sampling flag per cell. inc, reportHYZ
// and openRoundHYZ are that layout's code verbatim; it has one way to apply
// an increment (IncBatch and Merge are documented as ordered Inc replay, so
// the oracle replays) and writes the version-1 bank record the way the dense
// planes were written, plane by plane.
type denseBank struct {
	k, cells    int
	eps         float64
	metrics     *Metrics
	rng         *bn.RNG
	exactThresh int64

	total, base []int64
	sampling    []bool
	pThresh     []uint64
	adj         []float64
	estSum      []int64
	nReporters  []int32
	d, r        []int64 // cell*k + site
}

func newDenseBank(cells, k int, eps float64, metrics *Metrics, rng *bn.RNG) *denseBank {
	return &denseBank{
		k: k, cells: cells, eps: eps, metrics: metrics, rng: rng,
		exactThresh: ExactThreshold(k, eps),
		total:       make([]int64, cells), base: make([]int64, cells), sampling: make([]bool, cells),
		pThresh: make([]uint64, cells), adj: make([]float64, cells), estSum: make([]int64, cells),
		nReporters: make([]int32, cells), d: make([]int64, cells*k), r: make([]int64, cells*k),
	}
}

func (b *denseBank) inc(cell, site int) {
	b.total[cell]++
	if !b.sampling[cell] {
		b.metrics.SiteToCoord++
		if b.total[cell] >= b.exactThresh {
			b.openRoundHYZ(cell)
		}
		return
	}
	b.d[cell*b.k+site]++
	if b.rng.Uint64() < b.pThresh[cell] {
		b.reportHYZ(cell, site)
	}
}

func (b *denseBank) reportHYZ(cell, site int) {
	b.metrics.SiteToCoord++
	idx := cell*b.k + site
	if b.r[idx] == 0 {
		b.nReporters[cell]++
	}
	b.estSum[cell] += b.d[idx] - b.r[idx]
	b.r[idx] = b.d[idx]
	if b.inRoundEstimate(cell) >= float64(b.base[cell]) {
		b.openRoundHYZ(cell)
	}
}

func (b *denseBank) openRoundHYZ(cell int) {
	b.sampling[cell] = true
	b.metrics.SiteToCoord += int64(b.k)
	b.metrics.CoordToSite += int64(b.k)

	b.base[cell] = b.total[cell]
	if p := ReportProb(b.k, b.eps, b.base[cell]); p >= 1 {
		b.pThresh[cell] = math.MaxUint64
		b.adj[cell] = 0
	} else {
		b.pThresh[cell] = uint64(p * math.MaxUint64)
		b.adj[cell] = (1 - p) / p
	}
	lo := cell * b.k
	for i := lo; i < lo+b.k; i++ {
		b.d[i] = 0
		b.r[i] = 0
	}
	b.estSum[cell] = 0
	b.nReporters[cell] = 0
}

func (b *denseBank) inRoundEstimate(cell int) float64 {
	return float64(b.estSum[cell]) + float64(b.nReporters[cell])*b.adj[cell]
}

func (b *denseBank) estimate(cell int) float64 {
	if !b.sampling[cell] {
		return float64(b.total[cell])
	}
	return float64(b.base[cell]) + b.inRoundEstimate(cell)
}

func (b *denseBank) marshal() []byte {
	buf := []byte{bankStateVersion, byte(HYZKind)}
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	putSlice := func(s []int64) {
		for _, v := range s {
			put(uint64(v))
		}
	}
	put(uint64(b.cells))
	put(uint64(b.k))
	putSlice(b.total)
	for _, s := range b.sampling {
		if s {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	putSlice(b.base)
	putSlice(b.estSum)
	for _, n := range b.nReporters {
		put(uint64(n))
	}
	putSlice(b.d)
	putSlice(b.r)
	return buf
}

// TestRecordBankMatchesDenseOracle drives a bank and the dense oracle with
// the same (cell, site) sequence and same-seed RNGs — the bank through a
// random mix of Inc, IncBatch runs and Merge deltas, with EstimateRange
// reads in between — for k ∈ {1, 4, 30} and schedules
// that leave none, one and all of the cells sampling. What the lazy records
// put at risk is named by the cases: a cell's first round opening in the
// middle of an IncBatch run (the record slices are reallocated under the
// loop — 40 cells' records double from one), records handed out in
// first-round order rather than cell order, a site's d and r interleaved in
// memory but not in the checkpoint, and a record written as zeros for a cell
// that has none. Totals, estimates bit for bit, message tallies, the RNG
// position and the checkpoint bytes must all agree.
func TestRecordBankMatchesDenseOracle(t *testing.T) {
	const cells = 40
	shapes := []struct {
		name     string
		n        int
		hot      bool // nine increments in ten go to cell 7
		sampling int  // cells that must have a record at the end
	}{
		{"none-sampling", 3 * cells, false, 0},
		{"one-sampling", 2000, true, 1},
		{"all-sampling", 800 * cells, false, cells},
	}
	for _, k := range []int{1, 4, 30} {
		for _, shape := range shapes {
			t.Run(fmt.Sprintf("kind=%d/k=%d/%s", HYZKind, k, shape.name), func(t *testing.T) {
				var mBank, mDense Metrics
				rngBank, rngDense := bn.NewRNG(42), bn.NewRNG(42)
				bank, err := NewBank(HYZKind, cells, k, 0.1, 0.25, &mBank, rngBank)
				if err != nil {
					t.Fatal(err)
				}
				dense := newDenseBank(cells, k, 0.1, &mDense, rngDense)

				sched := bn.NewRNG(uint64(7 + k))
				draw := func() (cell, site int) {
					cell = sched.Intn(cells)
					if shape.hot && sched.Intn(10) != 0 {
						cell = 7
					}
					return cell, sched.Intn(k)
				}
				var runCells, runSites []int32
				delta, est := make([]int64, cells*k), make([]float64, cells)
				midRunFirstRounds := 0
				for done := 0; done < shape.n; {
					switch op := sched.Intn(10); {
					case op < 4:
						cell, site := draw()
						bank.Inc(cell, site)
						dense.inc(cell, site)
						done++
					case op < 9:
						runCells, runSites = runCells[:0], runSites[:0]
						for m := sched.Intn(71); m > 0; m-- {
							cell, site := draw()
							runCells, runSites = append(runCells, int32(cell)), append(runSites, int32(site))
						}
						before := bank.records
						bank.IncBatch(runCells, runSites)
						for i, c := range runCells {
							dense.inc(int(c), int(runSites[i]))
						}
						if len(runCells) > 0 && bank.records > before && ^bank.word[runCells[len(runCells)-1]] < int64(before) {
							midRunFirstRounds++ // the run went on after a record was handed out
						}
						done += len(runCells)
					default:
						clear(delta)
						for m := sched.Intn(40); m > 0; m-- {
							cell, site := draw()
							delta[cell*k+site]++
							done++
						}
						bank.Merge(delta)
						for i, c := range delta {
							for ; c > 0; c-- {
								dense.inc(i/k, i%k)
							}
						}
					}
					if mBank != mDense {
						t.Fatalf("after %d increments: tallies %+v, dense %+v", done, mBank, mDense)
					}
					lo := sched.Intn(cells)
					hi := lo + sched.Intn(cells-lo+1)
					bank.EstimateRange(lo, hi, est)
					for c := lo; c < hi; c++ {
						if math.Float64bits(est[c-lo]) != math.Float64bits(dense.estimate(c)) {
							t.Fatalf("after %d increments, cell %d: estimate %v, dense %v", done, c, est[c-lo], dense.estimate(c))
						}
					}
				}
				for c := 0; c < cells; c++ {
					if bank.Exact(c) != dense.total[c] || math.Float64bits(bank.Estimate(c)) != math.Float64bits(dense.estimate(c)) {
						t.Errorf("cell %d: %d/%v, dense %d/%v", c, bank.Exact(c), bank.Estimate(c), dense.total[c], dense.estimate(c))
					}
				}
				if rngBank.State() != rngDense.State() {
					t.Error("RNG positions differ")
				}
				got, err := bank.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, dense.marshal()) {
					t.Error("checkpoint bytes differ from the dense planes'")
				}
				if len(got) != bank.StateLen() {
					t.Errorf("StateLen %d, record is %d bytes", bank.StateLen(), len(got))
				}
				if int(bank.records) != shape.sampling {
					t.Errorf("%d cells sampling at the end, schedule is built for %d", bank.records, shape.sampling)
				}
				if shape.sampling == cells && midRunFirstRounds == 0 {
					t.Error("no IncBatch run continued past a first round: growth under a running loop went untested")
				}
			})
		}
	}
}

// TestRoundRecordGrowthIsBounded runs HYZ banks shaped like a tracker's (a
// pair and a parent bank per alarm variable) over
// a long stream and checks the promises of newRecord after every growth: the
// record slices double from one record, so a bank reallocates them at most
// ⌈log₂ cells⌉ + 1 times and never holds more than 2·records + 1 records nor
// more than `cells`, and a cell keeps the record index it was given, across
// every growth.
func TestRoundRecordGrowthIsBounded(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	net := model.Network()
	const k = 4
	events := 1_000_000
	if testing.Short() {
		events = 100_000
	}
	type tracked struct {
		b     *Bank
		word  []int64 // as of the last check
		grown int
	}
	var m Metrics
	var banks []*tracked
	for i := 0; i < net.Len(); i++ {
		for _, cells := range []int{net.Card(i) * net.ParentCard(i), net.ParentCard(i)} {
			b, err := NewBank(HYZKind, cells, k, 0.01, 0.25, &m, bn.NewRNG(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			banks = append(banks, &tracked{b: b, word: slices.Clone(b.word)})
		}
	}
	check := func(e int, tb *tracked) {
		b, cells := tb.b, tb.b.Cells()
		growths := bits.Len(uint(cells-1)) + 1 // ⌈log₂ cells⌉ + 1
		if tb.grown > growths || b.room() > cells || b.room() > 2*int(b.records)+1 {
			t.Fatalf("event %d: bank of %d cells reallocated %d times (at most %d), has room for %d records, uses %d",
				e, cells, tb.grown, growths, b.room(), b.records)
		}
		for cell, v := range tb.word {
			if v < 0 && b.word[cell] != v {
				t.Fatalf("event %d: cell %d moved from record %d to %d", e, cell, ^v, ^b.word[cell])
			}
		}
		copy(tb.word, b.word)
	}
	sampler, sites := model.NewSampler(3), bn.NewRNG(5)
	var x []int
	for e := 0; e < events; e++ {
		x = sampler.Sample(x)
		site := sites.Intn(k)
		for i, pidx := range sampler.ParentIndices() {
			for j, cell := range []int{int(pidx)*net.Card(i) + x[i], int(pidx)} {
				tb := banks[2*i+j]
				room := tb.b.room()
				tb.b.Inc(cell, site)
				if tb.b.room() != room {
					tb.grown++
					check(e, tb)
				}
			}
		}
	}
	sampling, cells, growths := 0, 0, 0
	for _, tb := range banks {
		check(events, tb)
		sampling, cells, growths = sampling+int(tb.b.records), cells+tb.b.Cells(), growths+tb.grown
	}
	if sampling == 0 || sampling == cells {
		t.Errorf("%d of %d cells sampling: the stream should leave some in each mode", sampling, cells)
	}
	if growths <= len(banks) {
		t.Errorf("%d growths over %d banks: no bank doubled its records", growths, len(banks))
	}
}

// TestBankHeaderLines pins the Bank header to two cache lines and everything
// an exact-mode Inc or IncBatch reads, of every kind, to the first: the
// tracker visits every bank for every event, so the header is as much of the
// ingest working set as the cells. The 128-byte size class is what aligns a
// bank to a line, which the banks NewBank hands out show.
func TestBankHeaderLines(t *testing.T) {
	var b Bank
	if size := unsafe.Sizeof(b); size > 128 {
		t.Errorf("Bank is %d bytes, want at most 128", size)
	}
	for _, f := range []struct {
		name       string
		off, bytes uintptr
	}{
		{"word", unsafe.Offsetof(b.word), unsafe.Sizeof(b.word)},
		{"metrics", unsafe.Offsetof(b.metrics), unsafe.Sizeof(b.metrics)},
		{"exactThresh", unsafe.Offsetof(b.exactThresh), unsafe.Sizeof(b.exactThresh)},
		{"eps", unsafe.Offsetof(b.eps), unsafe.Sizeof(b.eps)},
		{"k", unsafe.Offsetof(b.k), unsafe.Sizeof(b.k)},
		{"kind", unsafe.Offsetof(b.kind), unsafe.Sizeof(b.kind)},
	} {
		if f.off+f.bytes > 64 {
			t.Errorf("field %s at bytes [%d,%d) of the header, want it in the first line", f.name, f.off, f.off+f.bytes)
		}
	}
	var m Metrics
	for i := 0; i < 16; i++ {
		bank, err := NewBank(HYZKind, 8, 4, 0.1, 0.25, &m, bn.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if p := uintptr(unsafe.Pointer(bank)); p%64 != 0 {
			t.Fatalf("bank at %#x is not 64-byte aligned", p)
		}
	}
}

// fixtureBank builds the HYZ bank whose version-1 record is committed as
// testdata/bank_v1_hyz.bin: six cells over four sites, driven through Inc,
// IncBatch and Merge by a fixed skewed schedule that leaves four cells
// sampling, one in exact mode and one untouched. The file was written by
// this function at the last commit with dense planes (5ec4b4d), which is
// what makes it a fixture rather than a golden; it counted the tallies in
// fixtureTallies while producing it.
func fixtureBank(t testing.TB) (*Bank, *Metrics) {
	const cells, k = 6, 4
	m := new(Metrics)
	b, err := NewBank(HYZKind, cells, k, 0.1, 0.25, m, bn.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	sched := bn.NewRNG(9)
	draw := func() (int, int) {
		cell := sched.Intn(3)
		if sched.Intn(100) == 0 {
			cell = 3 + sched.Intn(2)
		}
		return cell, sched.Intn(k)
	}
	for i := 0; i < 2000; i++ {
		b.Inc(draw())
	}
	var runCells, runSites []int32
	delta := make([]int64, cells*k)
	for i := 0; i < 1000; i++ {
		cell, site := draw()
		runCells, runSites = append(runCells, int32(cell)), append(runSites, int32(site))
		cell, site = draw()
		delta[cell*k+site]++
	}
	b.IncBatch(runCells, runSites)
	b.Merge(delta)
	return b, m
}

const (
	hyzFixture = "testdata/bank_v1_hyz.bin"
	// detFixture is the same schedule's record from a deterministic
	// threshold counter, a kind that is gone: it stays as a record a bank
	// must refuse.
	detFixture     = "testdata/bank_v1_det.bin"
	fixtureRecords = 4
)

var fixtureTallies = Metrics{SiteToCoord: 563, CoordToSite: 84}

// TestBankV1Fixtures pins the checkpoint format across the layout change:
// the same increments must produce the committed bytes, and decoding the
// committed bytes must give a bank that re-encodes to them, holds exactly one
// record per sampling cell and carries on like the bank that was saved. The
// deterministic fixture is refused by a bank of its shape, which is left as
// it was.
func TestBankV1Fixtures(t *testing.T) {
	t.Run(hyzFixture, func(t *testing.T) {
		want, err := os.ReadFile(hyzFixture)
		if err != nil {
			t.Fatal(err)
		}
		built, m := fixtureBank(t)
		if got, _ := built.MarshalBinary(); !bytes.Equal(got, want) {
			t.Error("the fixture's increments no longer produce the fixture's bytes")
		}
		if *m != fixtureTallies {
			t.Errorf("tallies %+v, the dense planes counted %+v", *m, fixtureTallies)
		}
		var m2 Metrics
		loaded, err := NewBank(HYZKind, built.Cells(), built.k, built.eps, 0.25, &m2, bn.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.UnmarshalBinary(want); err != nil {
			t.Fatal(err)
		}
		if got, _ := loaded.MarshalBinary(); !bytes.Equal(got, want) {
			t.Error("decode then re-encode changed the record")
		}
		if int(loaded.records) != fixtureRecords || loaded.room() != fixtureRecords {
			t.Errorf("loaded bank holds %d records with room for %d, want exactly %d", loaded.records, loaded.room(), fixtureRecords)
		}
		loaded.rng.SetState(built.rng.State())
		sched := bn.NewRNG(13)
		for i := 0; i < 5000; i++ {
			cell, site := sched.Intn(built.Cells()), sched.Intn(built.k)
			built.Inc(cell, site)
			loaded.Inc(cell, site)
		}
		a, _ := built.MarshalBinary()
		b, _ := loaded.MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Error("the restored bank diverged from the one that was saved")
		}
	})
	t.Run(detFixture, func(t *testing.T) {
		data, err := os.ReadFile(detFixture)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := fixtureBank(t)
		before, _ := b.MarshalBinary()
		if err := b.UnmarshalBinary(data); err == nil {
			t.Error("a deterministic-kind record loaded into a HYZ bank")
		}
		if after, _ := b.MarshalBinary(); !bytes.Equal(after, before) {
			t.Error("a refused load changed the bank")
		}
	})
}

// TestStateRejectsRoundDataForExactCell: a cell flagged exact-mode has no
// record, so a checkpoint that gives it round state — in any plane — is
// refused, and a refused load leaves the bank as it was.
func TestStateRejectsRoundDataForExactCell(t *testing.T) {
	data, err := os.ReadFile(hyzFixture)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := fixtureBank(t)
	const exactCell = 4 // in exact mode in the fixture
	off := 18 + 9*b.Cells()
	for plane, w := range []int{1, 1, 1, b.k, b.k} {
		bad := bytes.Clone(data)
		bad[off+8*w*exactCell+8*(w-1)] = 1 // the cell's last word of the plane
		if err := b.UnmarshalBinary(bad); !errors.Is(err, errExactCellRoundState) {
			t.Errorf("plane %d: exact-mode cell with round data: err = %v", plane, err)
		}
		off += 8 * w * b.Cells()
	}
	if got, _ := b.MarshalBinary(); !bytes.Equal(got, data) {
		t.Error("a refused load changed the bank")
	}
}

// TestStateRejectsCountsARecordCannotHold: a bank word holds a count or a
// record index, not both, so a record with a negative count, with a sampling
// cell whose count is not the one its round state implies (base + Σ d), or
// whose round record is not the one its sites' reports imply (0 ≤ r ≤ d,
// estSum = Σ r, nReporters = #{r > 0}), is refused — by banks of both kinds
// — and a refused load leaves the bank as it was.
func TestStateRejectsCountsARecordCannotHold(t *testing.T) {
	type edit struct {
		name string
		off  int // of the little-endian word the edit changes
		f    func(int64) int64
		want error
	}
	negative := func(int64) int64 { return -1 }
	plusOne := func(v int64) int64 { return v + 1 }
	refuse := func(t *testing.T, b *Bank, edits []edit) {
		t.Helper()
		before, _ := b.MarshalBinary()
		for _, e := range edits {
			bad := bytes.Clone(before)
			binary.LittleEndian.PutUint64(bad[e.off:], uint64(e.f(int64(binary.LittleEndian.Uint64(bad[e.off:])))))
			if err := b.UnmarshalBinary(bad); !errors.Is(err, e.want) {
				t.Errorf("%s: err = %v, want %v", e.name, err, e.want)
			}
		}
		if after, _ := b.MarshalBinary(); !bytes.Equal(after, before) {
			t.Error("a refused load changed the bank")
		}
	}

	// The fixture's cell 0 samples, cell 4 is in exact mode and cell 5 was
	// never touched; a record's planes start after 9 bytes a cell.
	t.Run("bank/"+hyzFixture, func(t *testing.T) {
		const sampling, exactCell, untouched = 0, 4, 5
		b, _ := fixtureBank(t)
		cells, k := b.Cells(), b.k
		if b.word[sampling] >= 0 || b.word[exactCell] < 0 {
			t.Fatal("the fixture schedule no longer leaves cell 0 sampling and cell 4 exact")
		}
		count := func(cell int) int { return 18 + 8*cell }
		planes := 18 + 9*cells
		plane := func(p, cell int) int { return planes + 8*(p*cells+cell) } // base, estSum, nReporters
		siteWord := func(r, site int) int { return planes + 8*(3*cells+(r*cells+sampling)*k+site) }
		st := b.sites[int(^b.word[sampling])*k+k-1]
		if st.r == 0 || st.r == st.d {
			t.Fatalf("the fixture's cell 0, last site has d = %d, r = %d: the r edits below need 0 < r < d", st.d, st.r)
		}
		refuse(t, b, []edit{
			{"negative count, exact-mode cell", count(exactCell), negative, errNegativeCount},
			{"negative count, untouched cell", count(untouched), negative, errNegativeCount},
			{"negative count, sampling cell", count(sampling), negative, errNegativeCount},
			{"sampling count above its record's", count(sampling), plusOne, errCountOffRecord},
			{"sampling base above its count's share", plane(0, sampling), plusOne, errCountOffRecord},
			{"sampling site delta above its count's share", siteWord(0, k-1), plusOne, errCountOffRecord},
			{"estSum off Σ r", plane(1, sampling), func(v int64) int64 { return v + 1_000_000 }, errReportsOffRecord},
			{"nReporters past int32", plane(2, sampling), func(int64) int64 { return 1<<40 + 3 }, errReportsOffRecord},
			{"nReporters off the reporting sites", plane(2, sampling), plusOne, errReportsOffRecord},
			{"reported delta above its site's delta", siteWord(1, k-1), func(int64) int64 { return st.d + 1 }, errReportsOffRecord},
			{"negative reported delta", siteWord(1, k-1), negative, errReportsOffRecord},
		})
	})
	t.Run("bank/exact", func(t *testing.T) {
		var m Metrics
		b, err := NewBank(ExactKind, 3, 4, 0, 0, &m, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.Inc(1, 2)
		refuse(t, b, []edit{{"negative count", 18 + 8*2, negative, errNegativeCount}})
	})
}
