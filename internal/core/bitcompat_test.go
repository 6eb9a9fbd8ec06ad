package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"
)

// This file pins the single-stripe reference mode to the exact behavior of
// the PR 2 tracker. The fingerprints below were generated at PR 2 HEAD
// (commit 10fb3cd, "flat counter banks + snapshot query path") by running
//
//	DISTBAYES_GEN_BITCOMPAT=1 go test ./internal/core -run TestSequentialModeBitCompat -v
//
// and they cover, per strategy (plus the deterministic-counter ablation):
// the event count, the exact site→coord / coord→site message tallies, and an
// FNV-64a hash over every exact cell count, every raw counter estimate
// (ReadCPDRows) and every full-joint query answer bit pattern.
//
// The guarantee under test: a tracker with Shards ≤ 1 (the sequential
// engine) replays the historical sequential tracker bit-for-bit — same
// counts, same message schedule, same query answers — for a fixed seed and
// event order. Any change that shifts an RNG draw, reorders increments, or
// touches the estimate arithmetic of the reference mode breaks this test and
// must either be fixed or be an explicit, documented format/protocol bump.
func TestSequentialModeBitCompat(t *testing.T) {
	m := testModel(t)
	const sites, events = 4, 6000
	evs := genEventStream(m, sites, events, 9)

	type variant struct {
		name   string
		cfg    Config
		golden string // "events siteToCoord coordToSite hash"
	}
	variants := []variant{
		{name: "ExactMLE", cfg: Config{Strategy: ExactMLE, Sites: sites, Seed: 42}},
		{name: "Baseline", cfg: Config{Strategy: Baseline, Eps: 0.15, Delta: 0.25, Sites: sites, Seed: 42}},
		{name: "Uniform", cfg: Config{Strategy: Uniform, Eps: 0.15, Delta: 0.25, Sites: sites, Seed: 42}},
		{name: "NonUniform", cfg: Config{Strategy: NonUniform, Eps: 0.15, Delta: 0.25, Sites: sites, Seed: 42}},
		{name: "NaiveBayes", cfg: Config{Strategy: NaiveBayes, Eps: 0.15, Delta: 0.25, Sites: sites, Seed: 42}},
		{name: "NonUniform-deterministic", cfg: Config{Strategy: NonUniform, Eps: 0.15, Sites: sites, Seed: 42, Counter: DeterministicCounter}},
	}
	golden := map[string]string{
		"ExactMLE":                 "6000 36000 0 0228541afda8fb3d",
		"Baseline":                 "6000 10836 304 7d58ce9552c2a7d8",
		"Uniform":                  "6000 20889 196 c97a069f69e3b16d",
		"NonUniform":               "6000 21063 192 1b4d45b8cfa8ce38",
		"NaiveBayes":               "6000 21158 196 9cb67466b4f7cc6c",
		"NonUniform-deterministic": "6000 21988 120 56c7ff5c69d1e7bb",
	}

	gen := os.Getenv("DISTBAYES_GEN_BITCOMPAT") != ""
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			tr, err := NewTracker(m.Network(), v.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range evs {
				tr.Update(ev.Site, ev.X)
			}
			got := bitCompatFingerprint(tr)
			if gen {
				t.Logf("golden[%q] = %q", v.name, got)
				return
			}
			if want := golden[v.name]; got != want {
				t.Errorf("sequential-mode fingerprint drifted:\n got  %s\n want %s\n"+
					"(Shards<=1 must stay bit-identical to PR 2 HEAD)", got, want)
			}
		})
	}
}

// bitCompatFingerprint condenses a tracker's observable state into one
// comparable line: event count, message tallies, and an FNV-64a hash over
// exact counts, raw estimates and full-joint query answers.
func bitCompatFingerprint(tr *Tracker) string {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	net := tr.Network()
	var rows CPDRows
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				pc, qc := tr.ExactCount(i, v, pidx)
				w64(uint64(pc))
				w64(uint64(qc))
			}
		}
		tr.ReadCPDRows(i, &rows)
		for _, e := range rows.Pair {
			w64(math.Float64bits(e))
		}
		for _, e := range rows.Par {
			w64(math.Float64bits(e))
		}
	}
	for _, q := range queryAll(tr) {
		w64(math.Float64bits(q))
	}
	msgs := tr.Messages()
	return fmt.Sprintf("%d %d %d %016x", tr.Events(), msgs.SiteToCoord, msgs.CoordToSite, h.Sum64())
}
