package counter

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"distbayes/internal/bn"
)

// FuzzBankIncEstimate drives every bank kind with an arbitrary Inc(cell,
// site) schedule decoded from the fuzz input — each byte pair is one
// increment — against a naive map-based reference, checking after every
// increment batch that
//
//   - Exact() matches the reference count in every cell for every kind
//     (approximation may delay reporting but never lose increments),
//   - the exact kind's Estimate equals the reference exactly,
//   - the randomized kinds' Estimates are finite and non-negative,
//
// and, at the end of the schedule, that folding the same increments through
// Merge (a run-ordered Inc replay) reproduces the same exact counts, and that
// feeding them through IncBatch in runs (the tracker's ingestion path; run
// lengths are taken from the input too) leaves a twin bank of the HYZ and of
// the one-way kind in exactly the state, RNG position and message tally of
// its per-pair Inc bank.
func FuzzBankIncEstimate(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(seedSchedule(777, 400))
	f.Add(seedSchedule(12345, 4000))

	const cells, k = 4, 5
	const eps = 0.1
	f.Fuzz(func(t *testing.T, data []byte) {
		var mh, me, mm, mb Metrics
		hyzRNG, batchRNG := bn.NewRNG(1), bn.NewRNG(1)
		hyz, err := NewBank(HYZKind, cells, k, eps, 0.25, &mh, hyzRNG)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewBank(ExactKind, cells, k, 0, 0, &me, nil)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := NewBank(HYZKind, cells, k, eps, 0.25, &mm, bn.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		batched, err := NewBank(HYZKind, cells, k, eps, 0.25, &mb, batchRNG)
		if err != nil {
			t.Fatal(err)
		}
		var mo, mob Metrics
		oneRNG, oneBatchRNG := bn.NewRNG(1), bn.NewRNG(1)
		oneWay, err := NewBank(OneWayKind, cells, k, eps, 0.25, &mo, oneRNG)
		if err != nil {
			t.Fatal(err)
		}
		oneBatched, err := NewBank(OneWayKind, cells, k, eps, 0.25, &mob, oneBatchRNG)
		if err != nil {
			t.Fatal(err)
		}
		var runCells, runSites []int32

		ref := map[int]int64{}
		delta := make([]int64, cells*k)
		check := func() {
			for c := 0; c < cells; c++ {
				n := ref[c]
				if hyz.Exact(c) != n || exact.Exact(c) != n || oneWay.Exact(c) != n {
					t.Fatalf("cell %d: exact %d/%d/%d, want %d", c, hyz.Exact(c), exact.Exact(c), oneWay.Exact(c), n)
				}
				if e := exact.Estimate(c); e != float64(n) {
					t.Fatalf("cell %d: exact-kind estimate %v, want %d", c, e, n)
				}
				for _, b := range []*Bank{hyz, oneWay} {
					if e := b.Estimate(c); math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
						t.Fatalf("cell %d: kind-%d estimate %v", c, b.kind, e)
					}
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			cell, site := int(data[i])%cells, int(data[i+1])%k
			hyz.Inc(cell, site)
			exact.Inc(cell, site)
			oneWay.Inc(cell, site)
			ref[cell]++
			delta[cell*k+site]++
			runCells, runSites = append(runCells, int32(cell)), append(runSites, int32(site))
			if len(runCells) > int(data[i])/3 { // run lengths 1..86
				batched.IncBatch(runCells, runSites)
				oneBatched.IncBatch(runCells, runSites)
				runCells, runSites = runCells[:0], runSites[:0]
			}
			if i%64 == 0 {
				check()
			}
		}
		check()
		batched.IncBatch(runCells, runSites)
		oneBatched.IncBatch(runCells, runSites)
		if !slices.Equal(oneWay.sites, oneBatched.sites) || mo != mob || oneRNG.State() != oneBatchRNG.State() {
			t.Fatalf("one-way IncBatch twin diverged from Inc: tallies %+v vs %+v", mob, mo)
		}
		want, _ := hyz.MarshalBinary()
		got, _ := batched.MarshalBinary()
		if !bytes.Equal(want, got) || mh != mb || hyzRNG.State() != batchRNG.State() {
			t.Fatalf("IncBatch twin diverged from Inc: tallies %+v vs %+v", mb, mh)
		}
		merged.Merge(delta)
		for c := 0; c < cells; c++ {
			if merged.Exact(c) != ref[c] {
				t.Fatalf("cell %d: merged exact %d, want %d", c, merged.Exact(c), ref[c])
			}
		}
	})
}

// seedSchedule builds a deterministic pseudo-random increment schedule for
// the seed corpus.
func seedSchedule(seed uint64, n int) []byte {
	rng := bn.NewRNG(seed)
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Uint64())
	}
	return out
}

// TestWriteFuzzBankCorpus regenerates the committed seed corpus under
// testdata/fuzz when DISTBAYES_WRITE_FUZZ_CORPUS is set; normally it only
// verifies the corpus directory exists.
func TestWriteFuzzBankCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzBankIncEstimate")
	if os.Getenv("DISTBAYES_WRITE_FUZZ_CORPUS") == "" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("seed corpus missing: %v (regenerate with DISTBAYES_WRITE_FUZZ_CORPUS=1)", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":     {},
		"short":     {3, 1},
		"schedule1": seedSchedule(777, 400),
		"schedule2": seedSchedule(12345, 4000),
	} {
		if err := writeFuzzCorpusFile(filepath.Join(dir, name), data); err != nil {
			t.Fatal(err)
		}
	}
}

// writeFuzzCorpusFile writes one []byte seed in the `go test fuzz v1`
// corpus encoding.
func writeFuzzCorpusFile(path string, data []byte) error {
	return os.WriteFile(path, []byte("go test fuzz v1\n[]byte("+strconv.Quote(string(data))+")\n"), 0o644)
}

// FuzzHYZRoundEnd holds a report's integer round-end compare, estSum >=
// endSum, to the float compare it stands for, inRound() >= float64(base):
// for k ∈ {1, 4, 30}, a round base from ExactThreshold(k, eps) up to 2⁶²,
// nReporters from 0 to k, and estSum at the stored threshold ±2 and at the
// ends of int64 and of the float sum's exact range.
func FuzzHYZRoundEnd(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint8(0), 0.1)
	f.Add(uint8(1), uint64(1000), uint8(1), 0.01)
	f.Add(uint8(1), uint64(1<<53+1), uint8(4), 0.15)
	f.Add(uint8(2), uint64(1<<40), uint8(17), 5e-5)
	f.Add(uint8(2), uint64(1<<62), uint8(30), 0.9)
	f.Fuzz(func(t *testing.T, kSel uint8, baseSel uint64, reporters uint8, eps float64) {
		k := []int{1, 4, 30}[kSel%3]
		if !(eps >= 1e-9 && eps < 1) {
			eps = 0.1
		}
		first := ExactThreshold(k, eps)
		rd := hyzRound{base: first + int64(baseSel%uint64(1<<62-first+1)), nReporters: int32(int(reporters) % (k + 1))}
		rd.setProb(ReportProb(k, eps, rd.base))
		rd.setEnd()
		sat := func(d int64) int64 { // endSum + d, kept inside int64
			if (d > 0 && rd.endSum > math.MaxInt64-d) || (d < 0 && rd.endSum < math.MinInt64-d) {
				return rd.endSum
			}
			return rd.endSum + d
		}
		for _, s := range []int64{sat(-2), sat(-1), rd.endSum, sat(1), sat(2),
			math.MinInt64, math.MinInt64 + 1, -1, 0, 1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64} {
			rd.estSum = s
			if got, want := rd.estSum >= rd.endSum, rd.inRound() >= float64(rd.base); got != want {
				t.Fatalf("k=%d eps=%v base=%d nReporters=%d adj=%v: estSum %d >= endSum %d is %v, the float compare %v",
					k, eps, rd.base, rd.nReporters, rd.adj, s, rd.endSum, got, want)
			}
		}
	})
}
