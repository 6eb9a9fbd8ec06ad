package cluster

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"distbayes/internal/chowliu"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// Accumulate is the per-event reference the bit-sliced pairAccumulator
// replaced, kept as the test oracle: one complete observation bumps every
// pair's co-occurrence cell by one.
func (l *StructLayout) Accumulate(counts []int64, x []int) {
	n := l.net.Len()
	p := 0
	for i := 0; i < n; i++ {
		rowBase := x[i]
		for j := i + 1; j < n; j++ {
			counts[l.pairOff[p]+uint32(rowBase*l.net.Card(j)+x[j])]++
			p++
		}
	}
}

// encodeStructStatsRef is the struct-stats encoder the dense-vector writer
// replaced (entry list in, per-entry PutUvarint + copy), kept as its golden.
func encodeStructStatsRef(dst []byte, siteEvents uint64, ups []Update) []byte {
	dst = dst[:0]
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], siteEvents)]...)
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(ups)))]...)
	prev := uint32(0)
	for _, u := range ups {
		delta := u.Counter - prev // for the first entry prev is 0: delta is the id itself
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(delta))]...)
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(u.LocalCount))]...)
		prev = u.Counter
	}
	return dst
}

// encodeUpdates is the reference encoder of the fixed-width frameUpdates
// payload (repeated u32 counter id, i64 local count). No writer emits the
// format any more; the decoder stays (append-only wire formats), and the
// round-trip test and the FuzzDecodeFrame seed corpus are built with this.
func encodeUpdates(dst []byte, ups []Update) []byte {
	dst = dst[:0]
	var tmp [12]byte
	for _, u := range ups {
		binary.LittleEndian.PutUint32(tmp[:4], u.Counter)
		binary.LittleEndian.PutUint64(tmp[4:], uint64(u.LocalCount))
		dst = append(dst, tmp[:]...)
	}
	return dst
}

// denseCounts scatters an entry list into a dense vector of cells counts —
// the form the site-side encoder takes.
func denseCounts(cells int, ups []Update) []int64 {
	dense := make([]int64, cells)
	for _, u := range ups {
		dense[u.Counter] = u.LocalCount
	}
	return dense
}

// TestStartConfigV4RoundTrip pins the version-4 StartConfig tail: the
// structure-learning cadence and the drift scenario fields survive the wire,
// including an empty drift name alongside a nonzero struct cadence — and the
// version-5 tail after it still parses.
func TestStartConfigV4RoundTrip(t *testing.T) {
	cfgs := []StartConfig{
		{
			NetName: "alarm", CPTSeed: 42, Strategy: 3, Eps: 0.1, Delta: 0.25,
			Sites: 7, Site: 3, Events: 123456, StreamSeed: 99, LatencyMicros: 250,
			BatchEvents: 128, StructBatchEvents: 256,
			DriftAtEvent: 61728, DriftCPTSeed: 0xD21F, DriftNetName: "tree:12:3:58",
		},
		// Struct learning without drift.
		{NetName: "alarm", Sites: 2, Events: 10, StructBatchEvents: 64},
		// Drift without struct learning (the flat comparison run).
		{NetName: "tree:4:2:1", Sites: 1, Events: 10, DriftAtEvent: 5,
			DriftCPTSeed: 9, DriftNetName: "tree:4:2:2"},
		// The version-6 flags word: a receiver that decodes increments.
		{NetName: "alarm", Sites: 2, Events: 10, StructBatchEvents: 64, StructDelta: true,
			DriftNetName: "alarm"},
	}
	for _, cfg := range cfgs {
		got, err := decodeStart(encodeStart(cfg))
		if err != nil {
			t.Fatalf("decode %+v: %v", cfg, err)
		}
		if got != cfg {
			t.Errorf("v4 start round trip: %+v != %+v", got, cfg)
		}
	}

	// Wire formats are append-only: the version-5 tail (a stripe index and
	// count after the drift name) still length-validates. With a count of 0
	// the frame decodes as its version-4 prefix; with a count > 0 it is
	// refused, naming the removed mode.
	for _, tc := range []struct {
		count uint32
		err   string
	}{{0, ""}, {3, "striped coordinator federation"}} {
		v5 := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(encodeStart(cfgs[0]), 1), tc.count)
		got, err := decodeStart(v5)
		if tc.err == "" && (err != nil || got != cfgs[0]) {
			t.Errorf("v5 frame with %d stripes: %+v, %v; want %+v", tc.count, got, err, cfgs[0])
		}
		if tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("v5 frame with %d stripes: err = %v, want one naming %q", tc.count, err, tc.err)
		}
	}

	// The version-6 flags word: bits this build does not know are ignored,
	// and without bit 0 the site ships cumulative frames only.
	for _, flags := range []uint32{startStructDelta | 1<<7, 1 << 7} {
		got, err := decodeStart(binary.LittleEndian.AppendUint32(encodeStart(cfgs[0]), flags))
		want := cfgs[0]
		want.StructDelta = flags&startStructDelta != 0
		if err != nil || got != want {
			t.Errorf("v6 frame with flags %#x: %+v, %v; want %+v", flags, got, err, want)
		}
	}
}

// TestStartConfigV4QuickRoundTrip drives the v4 codec with arbitrary field
// values (StartConfig stays ==-comparable, so quick.Check pins every field).
func TestStartConfigV4QuickRoundTrip(t *testing.T) {
	f := func(structBatch uint32, driftAt, driftSeed uint64, driftName string, structDelta bool) bool {
		cfg := StartConfig{
			NetName: "hepar2", CPTSeed: 1, Strategy: 2, Eps: 0.25, Delta: 0.1,
			Sites: 4, Site: 2, Events: 777, StreamSeed: 5, BatchEvents: 32,
			StructBatchEvents: structBatch, DriftAtEvent: driftAt,
			DriftCPTSeed: driftSeed, DriftNetName: driftName, StructDelta: structDelta,
		}
		got, err := decodeStart(encodeStart(cfg))
		return err == nil && got == cfg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStartConfigV4AppendOnly pins backward compatibility: a config with all
// structure-learning and drift fields zero must encode to the exact bytes a
// pre-v4 encoder produced, so old sites keep decoding new coordinators'
// hellos whenever the new features are off.
func TestStartConfigV4AppendOnly(t *testing.T) {
	cfg := StartConfig{
		NetName: "alarm", CPTSeed: 42, Strategy: 3, Eps: 0.1, Delta: 0.25,
		Sites: 7, Site: 3, Events: 123456, StreamSeed: 99, LatencyMicros: 250,
		BatchEvents: 128,
	}
	const restV2 = 8 + 1 + 8 + 8 + 4 + 4 + 8 + 8 + 4 + 4
	if got, want := len(encodeStart(cfg)), 4+len(cfg.NetName)+restV2; got != want {
		t.Errorf("struct-off config encodes %d bytes, want v2 length %d", got, want)
	}
	v4 := cfg
	v4.StructBatchEvents = 1
	if got := len(encodeStart(v4)); got <= 4+len(cfg.NetName)+restV2 {
		t.Errorf("struct-on config encodes %d bytes, want v4 tail appended", got)
	}
}

// TestStructStatsRoundTrip pins the frameStructStats codec: uvarint site
// position plus the delta-encoded cumulative cell counts.
func TestStructStatsRoundTrip(t *testing.T) {
	cases := []struct {
		events uint64
		ups    []Update
	}{
		{0, nil},
		{1, []Update{{Counter: 0, LocalCount: 1}}},
		{999, []Update{{Counter: 3, LocalCount: 7}, {Counter: 4, LocalCount: 1}, {Counter: 900, LocalCount: 1 << 40}}},
	}
	for _, c := range cases {
		events, ups, err := decodeStructStats(nil, encodeStructStats(nil, c.events, denseCounts(1000, c.ups)), 1000)
		if err != nil {
			t.Fatalf("decode events=%d: %v", c.events, err)
		}
		if events != c.events || len(ups) != len(c.ups) {
			t.Fatalf("round trip events=%d entries=%d, want %d/%d", events, len(ups), c.events, len(c.ups))
		}
		for i := range ups {
			if ups[i] != c.ups[i] {
				t.Errorf("entry %d: %+v != %+v", i, ups[i], c.ups[i])
			}
		}
	}
}

func TestStructStatsRejectsMalformed(t *testing.T) {
	good := encodeStructStats(nil, 7, denseCounts(10, []Update{{Counter: 2, LocalCount: 5}, {Counter: 9, LocalCount: 1}}))
	if _, _, err := decodeStructStats(nil, nil, 1000); err == nil {
		t.Error("empty payload accepted")
	}
	if _, _, err := decodeStructStats(nil, good[:len(good)-1], 1000); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, _, err := decodeStructStats(nil, append(good[:len(good):len(good)], 0), 1000); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Cell id 9 is out of range for a 5-cell layout.
	if _, _, err := decodeStructStats(nil, good, 5); err == nil {
		t.Error("out-of-range cell id accepted")
	}
}

// TestStructLayout pins the pairwise cell layout: every (pair, value, value)
// combination maps to a distinct cell, the cells exactly tile the count
// vector, and Accumulate bumps one cell per pair per event.
func TestStructLayout(t *testing.T) {
	netw, err := netgen.ByName("tree:5:3:1")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewStructLayout(netw)
	if err != nil {
		t.Fatal(err)
	}
	n := netw.Len()
	if want := n * (n - 1) / 2; l.NumPairs() != want {
		t.Fatalf("NumPairs = %d, want %d", l.NumPairs(), want)
	}
	seen := make(map[uint32]bool)
	for p := 0; p < l.NumPairs(); p++ {
		i, j := l.PairAt(p)
		if i >= j || l.PairIndex(i, j) != p {
			t.Fatalf("pair %d: PairAt/PairIndex disagree (%d,%d)", p, i, j)
		}
		for vi := 0; vi < netw.Card(i); vi++ {
			for vj := 0; vj < netw.Card(j); vj++ {
				id := l.pairOff[p] + uint32(vi*netw.Card(j)+vj)
				if id >= l.Cells() || seen[id] {
					t.Fatalf("cell id %d invalid or duplicated", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != int(l.Cells()) {
		t.Fatalf("layout covered %d cells, want %d", len(seen), l.Cells())
	}

	counts := make([]int64, l.Cells())
	x := []int{1, 0, 2, 2, 1}
	l.Accumulate(counts, x)
	l.Accumulate(counts, x)
	var total int64
	for _, c := range counts {
		total += c
	}
	if want := int64(2 * l.NumPairs()); total != want {
		t.Fatalf("Accumulate added %d counts, want %d", total, want)
	}
	for p := 0; p < l.NumPairs(); p++ {
		i, j := l.PairAt(p)
		joint := l.JointAt(counts, p)
		if got := joint[x[i]*netw.Card(j)+x[j]]; got != 2 {
			t.Fatalf("pair (%d,%d): joint cell = %d, want 2", i, j, got)
		}
	}
}

// TestStructOverlayLeavesFlatEstimatesIdentical runs the same stream with
// structure learning off and on: the overlay must not perturb the flat
// counter protocol — every coordinator estimate stays bit-identical — while
// the struct-on run additionally produces a learned structure.
func TestStructOverlayLeavesFlatEstimatesIdentical(t *testing.T) {
	cfg := Config{
		NetName: "tree:8:3:5", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 3, Events: 3000, StreamSeed: 11,
	}
	_, off, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	onCfg := cfg
	onCfg.StructBatchEvents = 128
	_, on, err := RunLocal(onCfg)
	if err != nil {
		t.Fatal(err)
	}
	offEst, onEst := allEstimates(off), allEstimates(on)
	if len(offEst) != len(onEst) {
		t.Fatalf("%d counters struct-off, %d struct-on", len(offEst), len(onEst))
	}
	for id, a := range offEst {
		if b := onEst[id]; a != b {
			t.Fatalf("counter %d: struct-off %v != struct-on %v", id, a, b)
		}
	}
	if _, _, ok := off.LearnedStructure(); ok {
		t.Error("struct-off run reports a learned structure")
	}
	if _, err := off.AcquireLearnedSnapshot(); err == nil {
		t.Error("struct-off AcquireLearnedSnapshot succeeded")
	}
	netw, epoch, ok := on.LearnedStructure()
	if !ok || netw == nil || epoch == 0 {
		t.Fatalf("struct-on run has no learned structure (ok=%v epoch=%d)", ok, epoch)
	}
	snap, err := on.AcquireLearnedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.StructureEpoch() != epoch {
		t.Errorf("snapshot epoch %d != %d", snap.StructureEpoch(), epoch)
	}
	if _, err := snap.Model(); err != nil {
		t.Errorf("learned snapshot model: %v", err)
	}
}

// TestDriftRelearnsPostDriftTree runs online structure learning under
// structure drift: every site's generating model switches at mid-stream from
// one random 12-variable tree to another over the same variables, and the
// windowed pair statistics must age the old tree out so that the final
// learned tree is the post-drift one, all 11 undirected edges of it. Each row
// is one seed s: trees tree:12:3:(s+3) -> tree:12:3:(s+57), 20 000 events
// over 10 sites, a 5 000-event window in 6 blocks, struct frames every 256
// events. Swap and relearn counts are not pinned: with ten sites they depend
// on how the sites' frames interleave.
func TestDriftRelearnsPostDriftTree(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			driftName := fmt.Sprintf("tree:12:3:%d", seed+57)
			cfg := Config{
				NetName: fmt.Sprintf("tree:12:3:%d", seed+3), CPTSeed: seed + 0xC0DE,
				Strategy: core.Uniform, Eps: 0.1, Delta: 0.25,
				Sites: 10, Events: 20000, StreamSeed: seed + 7,
				DriftNetName: driftName, DriftAfter: 0.5, DriftCPTSeed: seed + 0xD21F,
				StructBatchEvents: 256, StructWindowEvents: 5000, StructWindowBlocks: 6,
			}
			_, co, err := RunLocal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			learned, epoch, ok := co.LearnedStructure()
			if !ok {
				t.Fatal("no learned structure")
			}
			driftNet, err := netgen.ByName(driftName)
			if err != nil {
				t.Fatal(err)
			}
			want, got := chowliu.UndirectedEdges(driftNet), chowliu.UndirectedEdges(learned)
			match := 0
			for e := range want {
				if got[e] {
					match++
				}
			}
			if len(want) != 11 || match != len(want) {
				t.Errorf("learned tree recovers %d/%d post-drift edges, want 11/11 (learned %v)", match, len(want), got)
			}
			if epoch < 2 {
				t.Errorf("structure epoch %d, want >= 2: the pre-drift tree was never swapped out", epoch)
			}
			if ss := co.StructLearnStats(); ss.Frames == 0 {
				t.Errorf("no struct frames folded: %+v", ss)
			}
		})
	}
}
