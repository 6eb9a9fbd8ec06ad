package counter

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"distbayes/internal/bn"
)

// FuzzBankIncEstimate drives both bank kinds with an arbitrary Inc(cell,
// site) schedule decoded from the fuzz input — each byte pair is one
// increment — against a naive map-based reference, checking after every
// increment batch that
//
//   - Exact() matches the reference count in every cell for both kinds
//     (approximation may delay reporting but never lose increments),
//   - the exact kind's Estimate equals the reference exactly,
//   - the randomized kind's Estimate is finite and non-negative,
//
// and, at the end of the schedule, that folding the same increments through
// Merge (a run-ordered Inc replay) reproduces the same exact counts, and that
// feeding them through IncBatch in runs (the tracker's ingestion path; run
// lengths are taken from the input too) leaves a twin bank in exactly the
// state, RNG position and message tally of the per-pair Inc bank.
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
		var runCells, runSites []int32

		ref := map[int]int64{}
		delta := make([]int64, cells*k)
		check := func() {
			for c := 0; c < cells; c++ {
				n := ref[c]
				if hyz.Exact(c) != n || exact.Exact(c) != n {
					t.Fatalf("cell %d: exact %d/%d, want %d", c, hyz.Exact(c), exact.Exact(c), n)
				}
				if e := exact.Estimate(c); e != float64(n) {
					t.Fatalf("cell %d: exact-kind estimate %v, want %d", c, e, n)
				}
				if e := hyz.Estimate(c); math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
					t.Fatalf("cell %d: randomized estimate %v", c, e)
				}
			}
		}
		for i := 0; i+1 < len(data); i += 2 {
			cell, site := int(data[i])%cells, int(data[i+1])%k
			hyz.Inc(cell, site)
			exact.Inc(cell, site)
			ref[cell]++
			delta[cell*k+site]++
			runCells, runSites = append(runCells, int32(cell)), append(runSites, int32(site))
			if len(runCells) > int(data[i])/3 { // run lengths 1..86
				batched.IncBatch(runCells, runSites)
				runCells, runSites = runCells[:0], runSites[:0]
			}
			if i%64 == 0 {
				check()
			}
		}
		check()
		batched.IncBatch(runCells, runSites)
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
