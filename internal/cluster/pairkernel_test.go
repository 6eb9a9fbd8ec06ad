package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distbayes/internal/bn"
)

// randomPairNet builds an edgeless network of n variables with
// cardinalities drawn from 1..7 — the pair kernel only sees names and cards.
func randomPairNet(t testing.TB, rng *rand.Rand, n int) *bn.Network {
	t.Helper()
	vars := make([]bn.Variable, n)
	for i := range vars {
		vars[i] = bn.Variable{Name: fmt.Sprintf("x%d", i), Card: 1 + rng.Intn(7)}
	}
	netw, err := bn.NewNetwork(vars)
	if err != nil {
		t.Fatal(err)
	}
	return netw
}

// TestPairAccumulatorMatchesReference drives the bit-sliced kernel and the
// per-event reference scatter over random networks and event streams and
// compares the cumulative vectors after every ship, at cadences on both
// sides of the word (64) and block (256) boundaries, with extra folds forced
// at random mid-block positions (a resume replay can ask for the vector
// anywhere).
func TestPairAccumulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB175))
	for _, cadence := range []int{1, 7, 63, 64, 65, 255, 256, 257, 1000} {
		for trial := 0; trial < 4; trial++ {
			netw := randomPairNet(t, rng, 2+rng.Intn(39))
			layout, err := NewStructLayout(netw)
			if err != nil {
				t.Fatal(err)
			}
			acc := newPairAccumulator(layout)
			want := make([]int64, layout.Cells())
			// Skew the value draw per trial so blocks in which a value never
			// occurs (an inactive plane) are common.
			skew := 1 + rng.Intn(3)
			x := make([]int, netw.Len())
			events := 3*cadence + rng.Intn(600)
			for e := 1; e <= events; e++ {
				for i := range x {
					v := rng.Intn(netw.Card(i))
					for s := 1; s < skew; s++ {
						v = min(v, rng.Intn(netw.Card(i)))
					}
					x[i] = v
				}
				acc.add(x)
				layout.Accumulate(want, x)
				if e%cadence == 0 || e == events || rng.Intn(97) == 0 {
					if got := acc.cumulative(); !slices.Equal(got, want) {
						t.Fatalf("cadence %d trial %d (n=%d): cumulative vector differs from the reference after %d events",
							cadence, trial, netw.Len(), e)
					}
				}
			}
		}
	}
}

// TestEncodeStructStatsMatchesReference pins the dense-vector writer to the
// entry-list encoder it replaced, byte for byte, on random sorted inputs —
// including a reused destination buffer holding stale bytes.
func TestEncodeStructStatsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE1C0DE))
	var buf []byte
	for trial := 0; trial < 300; trial++ {
		cells := 1 + rng.Intn(3000)
		density := rng.Float64()
		var ups []Update
		for id := 0; id < cells; id++ {
			if rng.Float64() < density {
				// Counts across every uvarint width.
				ups = append(ups, Update{Counter: uint32(id), LocalCount: 1 + rng.Int63()>>uint(rng.Intn(63))})
			}
		}
		events := rng.Uint64() >> uint(rng.Intn(64))
		want := encodeStructStatsRef(nil, events, ups)
		buf = encodeStructStats(buf, events, denseCounts(cells, ups))
		if !bytes.Equal(buf, want) {
			t.Fatalf("trial %d (%d cells, %d entries): dense encoding differs from the reference", trial, cells, len(ups))
		}
	}
}

// TestShipStructStatsFoldsOpenBlock pins the ship path's ordering: whatever
// the stream position — here in the middle of a kernel block, as a resume
// replay lands — the shipped vector is the exact cumulative count at that
// position, not the count at the last block boundary. The first frame is
// cumulative and the later ones increments, rebuilt here on the previous
// frame's vector as a receiver does.
func TestShipStructStatsFoldsOpenBlock(t *testing.T) {
	st, err := newSiteRun(0, StartConfig{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: 3, Eps: 0.1, Delta: 0.25,
		Sites: 1, Events: 1000, StreamSeed: 7, StructBatchEvents: 256, StructDelta: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	layout := st.pairs.layout
	want := make([]int64, layout.Cells())
	var wire bytes.Buffer
	w := newConn(&wire)
	rd := newConn(&wire)
	rd.setReadLimit(structPayloadCap(layout.Cells()))
	got := make([]int64, layout.Cells())
	var at uint64
	for i, position := range []uint64{1, 100, 256, 300, 700} {
		for st.next < position {
			x, _ := st.nextEvent()
			st.pairs.add(x)
			layout.Accumulate(want, x)
			st.next++
		}
		if err := st.shipStruct(w); err != nil {
			t.Fatal(err)
		}
		wantType := frameStructDelta
		if i == 0 {
			wantType = frameStructStats
		}
		ft, payload, err := rd.readFrame()
		if err != nil || ft != wantType {
			t.Fatalf("position %d: read frame type %d, want %d: %v", position, ft, wantType, err)
		}
		var events uint64
		var ups []Update
		if ft == frameStructStats {
			events, ups, err = decodeStructStats(nil, payload, layout.Cells())
		} else {
			events, ups, err = decodeStructDelta(nil, payload, got, at)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			got[u.Counter] = u.LocalCount
		}
		at = events
		if events != position || !slices.Equal(got, want) {
			t.Fatalf("position %d: shipped vector (stamped %d) is not the exact cumulative count", position, events)
		}
	}
}

// BenchmarkStructFrame measures one alarm struct frame at the 256-event
// cadence, 64k events into the stream: the site's encode and the receiver's
// decode, shipped whole (frameStructStats) and as increments
// (frameStructDelta). The increment rows include the reference upkeep each
// side pays per frame (the site copies the vector it shipped, the receiver
// writes the rebuilt counts back). One op is one frame; ns/cell divides by
// the layout's 6 854 cells and B/frame is the payload size.
func BenchmarkStructFrame(b *testing.B) {
	st, err := newSiteRun(0, StartConfig{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: 3, Eps: 0.1, Delta: 0.25,
		Sites: 1, Events: 1 << 20, StreamSeed: 1, StructBatchEvents: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	advance := func(to uint64) {
		for ; st.next < to; st.next++ {
			x, _ := st.nextEvent()
			st.pairs.add(x)
		}
	}
	advance(1 << 16)
	base := st.next
	ref := slices.Clone(st.pairs.cumulative())
	advance(base + 256)
	cum := st.pairs.cumulative()
	cells := st.pairs.layout.Cells()
	full := encodeStructStats(nil, st.next, cum)
	delta := encodeStructDelta(nil, base, st.next, cum, ref)
	scratch := make([]int64, cells)

	var buf []byte
	var ups []Update
	for _, row := range []struct {
		name    string
		payload []byte
		op      func() error
	}{
		{"cumulative/encode", full, func() error {
			buf = encodeStructStats(buf, st.next, cum)
			return nil
		}},
		{"cumulative/decode", full, func() (err error) {
			_, ups, err = decodeStructStats(ups[:0], full, cells)
			return err
		}},
		{"increment/encode", delta, func() error {
			buf = encodeStructDelta(buf, base, st.next, cum, ref)
			copy(scratch, cum)
			return nil
		}},
		{"increment/decode", delta, func() (err error) {
			_, ups, err = decodeStructDelta(ups[:0], delta, ref, base)
			for _, u := range ups {
				scratch[u.Counter] = u.LocalCount
			}
			return err
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := row.op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
			b.ReportMetric(float64(len(row.payload)), "B/frame")
		})
	}
}

// BenchmarkPairAccumulate measures the site's pair path per event on alarm
// (37 variables, 666 pairs, 6 854 cells) at three ship cadences — the fold
// runs once per cadence (and per 256-event block) — next to the per-event
// scatter the kernel replaced. One op is one event; the path must not
// allocate.
func BenchmarkPairAccumulate(b *testing.B) {
	st, err := newSiteRun(0, StartConfig{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: 3, Eps: 0.1, Delta: 0.25,
		Sites: 1, Events: 1 << 20, StreamSeed: 1, StructBatchEvents: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	layout := st.pairs.layout
	pool := make([][]int, 4096)
	for i := range pool {
		x, _ := st.nextEvent()
		pool[i] = slices.Clone(x)
	}
	for _, cadence := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("cadence=%d", cadence), func(b *testing.B) {
			acc := newPairAccumulator(layout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.add(pool[i%len(pool)])
				if (i+1)%cadence == 0 {
					acc.cumulative()
				}
			}
		})
	}
	b.Run("reference-scatter", func(b *testing.B) {
		counts := make([]int64, layout.Cells())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			layout.Accumulate(counts, pool[i%len(pool)])
		}
	})
}
