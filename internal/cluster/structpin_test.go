package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"

	"distbayes/internal/cluster/chaos"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// structTap audits the frameStructStats frames a site sends through the
// chaos proxy: an order-sensitive hash of the payloads, and on every payload
// the invariant that makes a cumulative frame exact at its stream position —
// each pair's joint table sums to siteEvents (every event lands in exactly
// one cell of every pair), so a frame shipped without folding the kernel's
// open block is caught whatever position a timing-dependent resume picked.
type structTap struct {
	layout *StructLayout

	mu         sync.Mutex
	all        int // every client→server frame, struct or not
	hash       uint64
	frames     int
	offCadence int // struct frames shipped between cadence points: resume replays
	bad        []string
}

func (tp *structTap) observe(site uint32, frameType byte, payload []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.all++
	if frameType != frameStructStats {
		return
	}
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], tp.hash)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(len(payload)))
	h.Write(b[:])
	h.Write(payload)
	tp.hash = h.Sum64()
	tp.frames++

	events, ups, err := decodeStructStats(nil, payload, tp.layout.Cells())
	if err != nil {
		tp.bad = append(tp.bad, fmt.Sprintf("frame %d: %v", tp.frames, err))
		return
	}
	if events%pinCadence != 0 {
		tp.offCadence++
	}
	dense := denseCounts(int(tp.layout.Cells()), ups)
	for p := 0; p < tp.layout.NumPairs(); p++ {
		var sum int64
		for _, c := range tp.layout.JointAt(dense, p) {
			sum += c
		}
		if sum != int64(events) {
			i, j := tp.layout.PairAt(p)
			tp.bad = append(tp.bad, fmt.Sprintf("frame %d at position %d: pair (%d,%d) sums to %d", tp.frames, events, i, j, sum))
			return
		}
	}
}

// pinCadence is the pinned runs' StructBatchEvents. It is not a multiple of
// the kernel's 256-event block, so the kernel folds full blocks (every 256
// events since the last ship) and partial ones (at every ship) in one run.
const pinCadence = 300

func hashInt64s(v []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestStructKernelEndToEndPins pins the site's structure-learning output to
// values recorded from the commit before the bit-sliced kernel (3dcd0d3, per
// event scatter + []Update encoder): the cumulative pair counts, every
// frameStructStats payload, the coordinator's struct tallies and the final
// learned tree, for the per-event (v1) and batched (v2) site loops. One site
// keeps every pinned value scheduling-independent; the ship cadence of 300
// makes the kernel fold full blocks (at 256 events) and partial ones (at
// every ship) in the same run. The window is sized so nothing expires and
// the final frame closes a window block: the last relearn then sees exactly
// the complete cumulative counts, so the final tree is pinned under severs
// too, where frame counts and replay positions legitimately vary.
func TestStructKernelEndToEndPins(t *testing.T) {
	// The struct frames do not depend on how the flat reports are framed, so
	// both site loops share one set of pins.
	const (
		wantCounts   = uint64(0xe8b9dfd301d3cfa4)
		wantParent   = uint64(0xcea7cda702f60d6c)
		wantPayloads = uint64(0x66bdf8f1b9d76ab8)
	)
	wantStats := StructStats{Frames: 21, Entries: 141083, Relearns: 8, Swaps: 5, Epoch: 6}

	netw, err := netgen.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewStructLayout(netw)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		batch int
		sever int // sever the first connection after this many frames (0 = clean)
	}{
		{"v1", 0, 0},
		{"batched", 37, 0},
		{"v1", 0, 3200},
		{"batched", 37, 110},
	} {
		name := mode.name
		if mode.sever > 0 {
			name += "+sever"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25,
				Sites: 1, Events: 6000, StreamSeed: 0x5EED13, SiteBatchEvents: mode.batch,
				StructBatchEvents: pinCadence, StructWindowEvents: 12000, StructWindowBlocks: 16,
			}
			tap := &structTap{layout: layout}
			pcfg := chaos.Config{Seed: 13, Tap: tap.observe}
			if mode.sever > 0 {
				// More than half the run's frames: the first connection is
				// cut once, mid-run, and the resumed one outlives the run.
				pcfg.SeverMinFrames, pcfg.SeverMaxFrames = mode.sever, mode.sever
			}
			_, co, p := runThroughProxy(t, cfg, pcfg, nil)

			for _, msg := range tap.bad {
				t.Error(msg)
			}
			if got := hashInt64s(co.structs.perSite[0]); got != wantCounts {
				t.Errorf("cumulative pair counts hash %#x, want %#x", got, wantCounts)
			}
			st := co.structs.state.Load()
			if st == nil {
				t.Fatal("no learned structure")
			}
			parent := make([]int64, len(st.parent))
			for i, v := range st.parent {
				parent[i] = int64(v)
			}
			if got := hashInt64s(parent); got != wantParent {
				t.Errorf("learned parent vector hash %#x (%v), want %#x", got, st.parent, wantParent)
			}
			if mode.sever > 0 {
				if p.Severed() == 0 {
					t.Error("proxy severed no connection; the run degenerated to a clean one")
				}
				t.Logf("severed %d of %d frames; %d struct frames sent, %d of them off-cadence replays",
					p.Severed(), tap.all, tap.frames, tap.offCadence)
				return
			}
			if got := co.StructLearnStats(); got != wantStats {
				t.Errorf("struct stats %+v, want %+v", got, wantStats)
			}
			if tap.hash != wantPayloads {
				t.Errorf("struct payload hash %#x over %d frames, want %#x", tap.hash, tap.frames, wantPayloads)
			}
		})
	}
}
