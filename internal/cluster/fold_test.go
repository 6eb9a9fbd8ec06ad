package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"distbayes/internal/core"
)

// recordingTarget is a tierNode that only counts what is folded into it and
// keeps the last struct batch.
type recordingTarget struct {
	tierNode
	counts, structs int
	lastStruct      []Update
}

func (r *recordingTarget) foldCounts(uint32, []Update) { r.counts++ }
func (r *recordingTarget) foldStruct(_ uint32, _ uint64, ups []Update) {
	r.structs++
	r.lastStruct = slices.Clone(ups)
}

// TestFoldRejectsBadStructDelta pins the struct-delta reader: a
// frameStructDelta frame that does not follow the connection's last struct
// frame, or does not hold exactly one plausible increment per cell, is a
// protocol error naming the site and the frame type — and neither the
// target nor the connection's reference moves, so the next good frame still
// rebuilds the right counts.
func TestFoldRejectsBadStructDelta(t *testing.T) {
	const cells = 6
	delta := func(base, events uint64, incs ...uint64) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, base), events)
		for _, inc := range incs {
			b = binary.AppendUvarint(b, inc)
		}
		return b
	}
	newFolder := func(rec *recordingTarget) *frameFolder {
		return &frameFolder{target: rec, from: "peer", site: 1, sites: 2, counters: 10, cells: cells,
			innerCap: innerFrameCap(10, cells)}
	}
	// The connection's history: a cumulative frame at position 10, then
	// increments to position 14.
	first := encodeStructStats(nil, 10, []int64{3, 0, 5, 0, 2, 1})
	second := delta(10, 14, 1, 0, 4, 0, 0, 2)

	for _, tc := range []struct {
		name    string
		history [][]byte
		payload []byte
	}{
		// Based at 0 and carrying no cells: what an empty reference would take.
		{"no reference yet", nil, delta(0, 4)},
		{"wrong base", [][]byte{first, second}, delta(12, 18, 0, 0, 0, 0, 0, 0)},
		{"duplicate of the last frame", [][]byte{first, second}, second},
		{"behind its base", [][]byte{first, second}, delta(14, 13, 0, 0, 0, 0, 0, 0)},
		{"short", [][]byte{first, second}, delta(14, 18, 1, 1, 1, 1, 1)},
		{"truncated increment", [][]byte{first, second}, append(delta(14, 18, 1, 1, 1, 1, 1), 0x81)},
		{"trailing bytes", [][]byte{first, second}, delta(14, 18, 1, 1, 1, 1, 1, 1, 0)},
		{"increment above the span", [][]byte{first, second}, delta(14, 18, 0, 0, 5, 0, 0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := &recordingTarget{}
			f := newFolder(rec)
			for i, frame := range tc.history {
				ft := frameStructDelta
				if i == 0 {
					ft = frameStructStats
				}
				if _, err := f.fold(ft, frame); err != nil {
					t.Fatalf("history frame %d: %v", i, err)
				}
			}
			ref, refAt, folded := slices.Clone(f.ref), f.refAt, rec.structs
			data, err := f.fold(frameStructDelta, tc.payload)
			if !data || err == nil {
				t.Fatalf("fold = (%v, %v), want the frame rejected", data, err)
			}
			if !strings.Contains(err.Error(), "site 1") || !strings.Contains(err.Error(), fmt.Sprintf("frame %d", frameStructDelta)) {
				t.Errorf("error %q does not name site 1 and frame %d", err, frameStructDelta)
			}
			if rec.structs != folded {
				t.Error("the target saw the rejected frame")
			}
			if !slices.Equal(f.ref, ref) || f.refAt != refAt {
				t.Errorf("reference moved: %v at %d, was %v at %d", f.ref, f.refAt, ref, refAt)
			}
			if tc.history == nil {
				return
			}
			// The connection still takes the frame that does follow.
			if _, err := f.fold(frameStructDelta, delta(14, 18, 0, 4, 1, 0, 0, 0)); err != nil {
				t.Fatalf("next frame after the rejection: %v", err)
			}
			want := []Update{{Counter: 1, LocalCount: 4}, {Counter: 2, LocalCount: 10}}
			if !slices.Equal(rec.lastStruct, want) || f.refAt != 18 {
				t.Errorf("next frame folded %v (reference at %d), want %v at 18", rec.lastStruct, f.refAt, want)
			}
		})
	}
}

// TestFoldRejectsBeforeItFolds pins the shared reader's all-or-nothing
// contract on each of the five data frames: a frame whose LAST entry (of its
// last group) is out of range is rejected with nothing folded — the valid
// prefix, which a decode-as-you-fold reader would already have applied, must
// not reach the target — and the error names the site and the frame type.
// The relay rows fold into a real Relay and check its vectors; the last block
// checks the layout bound against a real coordinator's matrix.
func TestFoldRejectsBeforeItFolds(t *testing.T) {
	const counters, cells, sites = 100, 50, 4
	good := []Update{{Counter: 3, LocalCount: 7}, {Counter: 9, LocalCount: 2}}
	badCounter := append(append([]Update(nil), good...), Update{Counter: counters, LocalCount: 1})
	badCell := append(append([]Update(nil), good...), Update{Counter: cells, LocalCount: 1})
	// encodeUpdates2 writes what it is given; the decoder must be the one to
	// object. decodeStructStats shares its entry section.
	v2 := func(ups []Update) []byte { return encodeUpdates2(nil, ups) }
	groups := func(second []byte) []byte {
		return encodeRelayGroups(nil, []relayGroup{{Site: 1, Payload: v2(good)}, {Site: 2, Payload: second}})
	}
	cases := []struct {
		name    string
		site    uint32 // the connection's site, or relayPeer
		t       byte
		payload []byte
		errSite string
	}{
		{"updates", 2, frameUpdates, encodeUpdates(nil, badCounter), "site 2"},
		{"updates2", 2, frameUpdates2, v2(badCounter), "site 2"},
		{"structStats", 2, frameStructStats, encodeStructUpdates(40, badCell), "site 2"},
		{"relayUpdates", relayPeer, frameRelayUpdates, groups(v2(badCounter)), "site 2"},
		{"relayStruct", relayPeer, frameRelayStruct,
			encodeRelayGroups(nil, []relayGroup{
				{Site: 1, Payload: encodeStructUpdates(40, good)},
				{Site: 2, Payload: encodeStructUpdates(40, badCell)},
			}), "site 2"},
		{"relayUpdates/badSite", relayPeer, frameRelayUpdates,
			encodeRelayGroups(nil, []relayGroup{{Site: 1, Payload: v2(good)}, {Site: sites, Payload: v2(good)}}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Relay{sites: make([]relaySiteState, sites), flushReq: make(chan struct{}, 1)}
			r.down.init(r, "", StartConfig{Sites: sites}, counters, cells)
			f := r.down.newFolder("peer", tc.site)
			data, err := f.fold(tc.t, tc.payload)
			if !data || err == nil {
				t.Fatalf("fold = (%v, %v), want a data frame rejected", data, err)
			}
			if !strings.Contains(err.Error(), tc.errSite) || !strings.Contains(err.Error(), fmt.Sprintf("frame %d", tc.t)) {
				t.Errorf("error %q does not name %q and frame %d", err, tc.errSite, tc.t)
			}
			for i := range r.sites {
				if s := &r.sites[i]; s.known || s.counts.vals != nil || s.structs.vals != nil || s.structEvents != 0 {
					t.Errorf("site %d was folded into before the frame was rejected: %+v", i, s)
				}
			}
			if n := r.DownFrames.Load(); n != 0 {
				t.Errorf("%d downstream frames counted for a rejected frame", n)
			}
			// The same frame minus its bad tail folds.
			if tc.site != relayPeer {
				ok := map[byte][]byte{
					frameUpdates: encodeUpdates(nil, good), frameUpdates2: v2(good),
					frameStructStats: encodeStructUpdates(40, good),
				}[tc.t]
				if data, err := f.fold(tc.t, ok); !data || err != nil {
					t.Fatalf("valid frame rejected: (%v, %v)", data, err)
				}
				if r.sites[tc.site].counts.vals == nil && r.sites[tc.site].structs.vals == nil {
					t.Error("valid frame folded nothing")
				}
			}
		})
	}

	// A control frame is not data, and a frame on the wrong kind of
	// connection is rejected, not folded.
	rec := &recordingTarget{}
	f := &frameFolder{target: rec, from: "peer", site: 1, sites: sites, counters: counters, cells: cells,
		innerCap: innerFrameCap(counters, cells)}
	if data, err := f.fold(frameDone, encodeDone(1, 10)); data || err != nil {
		t.Errorf("frameDone: fold = (%v, %v), want not data", data, err)
	}
	if _, err := f.fold(frameRelayUpdates, groups(v2(good))); err == nil {
		t.Error("grouped relay frame accepted on a site connection")
	}
	f.site = relayPeer
	if _, err := f.fold(frameUpdates2, v2(good)); err == nil {
		t.Error("site frame accepted on a relay link")
	}
	f.cells = 0
	if _, err := f.fold(frameRelayStruct, groups(encodeStructUpdates(1, good))); err == nil {
		t.Error("struct stats accepted with structure learning off")
	}
	if rec.counts+rec.structs != 0 {
		t.Errorf("rejected frames reached the target: %+v", rec)
	}

	// Coordinator: ids just past the layout, in the fixed-width frame (whose
	// decoder does not bound ids) and in frameUpdates2.
	co, err := NewCoordinator(Config{
		NetName: "alarm", Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25, Sites: 2, Events: 10,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	n := co.layout.NumCounters()
	valid := []Update{{Counter: 0, LocalCount: 5}, {Counter: n - 1, LocalCount: 6}}
	cf := co.down.newFolder("site 0", 0)
	for _, bad := range []uint32{n, n + 7} {
		ups := append(append([]Update(nil), valid...), Update{Counter: bad, LocalCount: 1})
		for ft, payload := range map[byte][]byte{frameUpdates: encodeUpdates(nil, ups), frameUpdates2: v2(ups)} {
			if _, err := cf.fold(ft, payload); err == nil {
				t.Errorf("frame %d with counter %d outside [0,%d) accepted", ft, bad, n)
			}
		}
	}
	for id, e := range allEstimates(co) {
		if e != 0 {
			t.Fatalf("counter %d folded from a rejected frame", id)
		}
	}
	if co.updates.Load() != 0 {
		t.Errorf("%d updates counted from rejected frames", co.updates.Load())
	}
	if _, err := cf.fold(frameUpdates2, v2(valid)); err != nil {
		t.Fatal(err)
	}
	if allEstimates(co)[n-1] == 0 || co.updates.Load() != 2 {
		t.Error("valid frame did not fold")
	}
}
