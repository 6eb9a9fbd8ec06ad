package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sync"
	"testing"

	"distbayes/internal/cluster/chaos"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// structTap audits the struct frames a site sends through the chaos proxy.
// It rebuilds the cumulative vector every frame stands for — a
// frameStructStats frame is one, a frameStructDelta frame adds its
// increments to the vector of the connection's previous struct frame (one
// site, so a cumulative frame marks a new connection) — and keeps an
// order-sensitive hash of that vector as the cumulative frame
// encodeStructStats would write, so the hash compares with one taken over
// cumulative-only traffic. On every rebuilt vector it checks the invariant
// that makes a frame exact at its stream position — each pair's joint table
// sums to siteEvents (every event lands in exactly one cell of every pair),
// so a frame shipped without folding the kernel's open block is caught
// whatever position a timing-dependent resume picked.
type structTap struct {
	layout *StructLayout

	mu         sync.Mutex
	types      []byte // the type of every client→server frame, in order
	hash       uint64
	frames     int
	deltas     int // struct frames that came as increments
	offCadence int // struct frames shipped between cadence points: resume replays
	bad        []string

	cum   []int64 // the connection's rebuilt cumulative vector
	cumAt uint64  // and its stream position
}

func (tp *structTap) observe(site uint32, frameType byte, payload []byte) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.types = append(tp.types, frameType)
	var (
		events uint64
		ups    []Update
		err    error
	)
	switch {
	case frameType == frameStructStats:
		if events, ups, err = decodeStructStats(nil, payload, tp.layout.Cells()); err == nil {
			tp.cum = make([]int64, tp.layout.Cells())
		}
	case frameType == frameStructDelta && tp.cum == nil:
		err = fmt.Errorf("increments before a cumulative frame")
	case frameType == frameStructDelta:
		events, ups, err = decodeStructDelta(nil, payload, tp.cum, tp.cumAt)
		tp.deltas++
	default:
		return
	}
	tp.frames++
	if err != nil {
		tp.bad = append(tp.bad, fmt.Sprintf("frame %d: %v", tp.frames, err))
		return
	}
	for _, u := range ups {
		tp.cum[u.Counter] = u.LocalCount
	}
	tp.cumAt = events

	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], tp.hash)
	h.Write(b[:])
	full := encodeStructStats(nil, events, tp.cum)
	binary.LittleEndian.PutUint64(b[:], uint64(len(full)))
	h.Write(b[:])
	h.Write(full)
	tp.hash = h.Sum64()

	if events%pinCadence != 0 {
		tp.offCadence++
	}
	for p := 0; p < tp.layout.NumPairs(); p++ {
		var sum int64
		for _, c := range tp.layout.JointAt(tp.cum, p) {
			sum += c
		}
		if sum != int64(events) {
			i, j := tp.layout.PairAt(p)
			tp.bad = append(tp.bad, fmt.Sprintf("frame %d at position %d: pair (%d,%d) sums to %d", tp.frames, events, i, j, sum))
			return
		}
	}
}

// runCumulativeOnlySite runs site id against addr as Site.Run's first
// connection does, but drops StructDelta from the start configuration it
// receives: the site of a coordinator that predates frameStructDelta.
func runCumulativeOnlySite(addr string, id uint32) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer raw.Close()
	c := newConn(raw)
	cfg, _, err := hello(c, frameHello, id)
	if err != nil {
		return err
	}
	cfg.StructDelta = false
	st, err := newSiteRun(id, cfg)
	if err != nil {
		return err
	}
	if err := st.stream(c, 0); err != nil {
		return err
	}
	if err := c.send(frameDone, encodeDone(id, int64(cfg.Events))); err != nil {
		return err
	}
	_, err = awaitStats(c, id)
	return err
}

// learnedParent returns the coordinator's published learned tree as a
// parent vector (-1 at the root), orientation included.
func learnedParent(t *testing.T, co *Coordinator) []int {
	t.Helper()
	netw, _, ok := co.LearnedStructure()
	if !ok {
		t.Fatal("no learned structure")
	}
	parent := make([]int, netw.Len())
	for i := range parent {
		parent[i] = -1
		if ps := netw.Parents(i); len(ps) > 0 {
			parent[i] = ps[0]
		}
	}
	return parent
}

// TestStructDeltaMatchesCumulativeOnly runs one two-site stream twice: once
// with sites that ship increments, once with sites started without
// StructDelta, which must then ship cumulative frames only. The coordinator
// must end with the same per-site pair counts and stream positions and the
// same learned tree. The window is sized as in TestStructKernelEndToEndPins,
// so the last relearn sees every site's complete counts whatever the
// interleaving.
func TestStructDeltaMatchesCumulativeOnly(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25,
		Sites: 2, Events: 6000, StreamSeed: 0x5EED13, SiteBatchEvents: 37,
		StructBatchEvents: pinCadence, StructWindowEvents: 12000, StructWindowBlocks: 16,
	}
	type outcome struct {
		rows   [][]int64
		pos    []uint64
		parent []int
		types  map[byte]int
	}
	run := func(cumulativeOnly bool) outcome {
		var mu sync.Mutex
		types := map[byte]int{}
		tap := func(_ uint32, ft byte, _ []byte) {
			mu.Lock()
			types[ft]++
			mu.Unlock()
		}
		var co *Coordinator
		if cumulativeOnly {
			var err error
			if co, err = NewCoordinator(cfg, "127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			p, err := chaos.New(chaos.Config{Tap: tap}, co.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			wait := startSites(cfg.Sites, func(i int) (struct{}, error) {
				return struct{}{}, runCumulativeOnlySite(p.Addr(), uint32(i))
			})
			if _, err := co.Serve(); err != nil {
				t.Fatal(err)
			}
			if _, err := wait(); err != nil {
				t.Fatal(err)
			}
		} else {
			_, co, _ = runThroughProxy(t, cfg, chaos.Config{Tap: tap}, nil)
		}
		rows, pos := structRows(co)
		return outcome{rows, pos, learnedParent(t, co), types}
	}
	deltas, cumulative := run(false), run(true)

	if n := cumulative.types[frameStructDelta]; n != 0 || cumulative.types[frameStructStats] == 0 {
		t.Errorf("sites started without StructDelta sent %d increment frames and %d cumulative ones, want only cumulative",
			n, cumulative.types[frameStructStats])
	}
	if n := deltas.types[frameStructStats]; n != cfg.Sites || deltas.types[frameStructDelta] == 0 {
		t.Errorf("delta run sent %d cumulative frames and %d increment frames, want one cumulative per site",
			n, deltas.types[frameStructDelta])
	}
	for site := range cumulative.rows {
		if !slices.Equal(deltas.rows[site], cumulative.rows[site]) || deltas.pos[site] != cumulative.pos[site] {
			t.Errorf("site %d: pair counts or position (%d, %d) differ between the increment and cumulative-only runs",
				site, deltas.pos[site], cumulative.pos[site])
		}
	}
	if !slices.Equal(deltas.parent, cumulative.parent) {
		t.Errorf("learned tree %v with increments, %v cumulative-only", deltas.parent, cumulative.parent)
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
// struct frame — as the cumulative frameStructStats payload it stands for,
// which is what every struct frame was before frameStructDelta — the
// coordinator's struct tallies and the final learned tree, for the per-event
// (v1) and batched (v2) site loops. One site keeps every pinned value
// scheduling-independent; the ship cadence of 300 makes the kernel fold full
// blocks (at 256 events) and partial ones (at every ship) in the same run.
// The window is sized so nothing expires and the final frame closes a window
// block: the last relearn then sees exactly the complete cumulative counts,
// so the final tree is pinned under severs too, where frame counts and
// replay positions legitimately vary.
func TestStructKernelEndToEndPins(t *testing.T) {
	// The struct frames do not depend on how the flat reports are framed, so
	// both site loops share one set of pins.
	const (
		wantCounts   = uint64(0xe8b9dfd301d3cfa4)
		wantParent   = uint64(0xcea7cda702f60d6c)
		wantPayloads = uint64(0x66bdf8f1b9d76ab8)
	)
	// Entries counts the cells each frame changed: every nonzero cell of the
	// first (cumulative) frame, then only the cells an increment moved.
	wantStats := StructStats{Frames: 21, Entries: 124032, Relearns: 8, Swaps: 5, Epoch: 6}

	netw, err := netgen.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	layout, err := NewStructLayout(netw)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		batch  int
		sever  int  // sever the first connection after this many frames (0 = clean)
		midCut bool // the sever forwards half of that frame, which is a delta frame
	}{
		{"v1", 0, 0, false},
		{"batched", 37, 0, false},
		{"v1", 0, 3200, false},
		{"batched", 37, 110, false},
		{"batched", 37, 101, true},
	} {
		name := mode.name
		if mode.sever > 0 {
			name += "+sever"
		}
		if mode.midCut {
			name += "+midcut"
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
			if mode.midCut {
				pcfg.MidFrameCutProb = 1
			}
			_, co, p := runThroughProxy(t, cfg, pcfg, nil)

			for _, msg := range tap.bad {
				t.Error(msg)
			}
			// The proxy counts the opening frame, which the tap does not see.
			if mode.midCut && tap.types[mode.sever-2] != frameStructDelta {
				t.Errorf("the cut frame has type %d, want a delta frame (%d)", tap.types[mode.sever-2], frameStructDelta)
			}
			if got := hashInt64s(co.structs.perSite[0]); got != wantCounts {
				t.Errorf("cumulative pair counts hash %#x, want %#x", got, wantCounts)
			}
			learned := learnedParent(t, co)
			parent := make([]int64, len(learned))
			for i, v := range learned {
				parent[i] = int64(v)
			}
			if got := hashInt64s(parent); got != wantParent {
				t.Errorf("learned parent vector hash %#x (%v), want %#x", got, learned, wantParent)
			}
			if mode.sever > 0 {
				if p.Severed() == 0 {
					t.Error("proxy severed no connection; the run degenerated to a clean one")
				}
				t.Logf("severed %d of %d frames; %d struct frames sent, %d of them increments, %d off-cadence replays",
					p.Severed(), len(tap.types), tap.frames, tap.deltas, tap.offCadence)
				return
			}
			if got := co.StructLearnStats(); got != wantStats {
				t.Errorf("struct stats %+v, want %+v", got, wantStats)
			}
			if tap.deltas != tap.frames-1 {
				t.Errorf("%d of %d struct frames were increments, want all but the first", tap.deltas, tap.frames)
			}
			if tap.hash != wantPayloads {
				t.Errorf("struct payload hash %#x over %d frames, want %#x", tap.hash, tap.frames, wantPayloads)
			}
		})
	}
}
