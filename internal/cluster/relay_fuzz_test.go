package cluster

import (
	"path/filepath"
	"slices"
	"testing"
)

// fuzzRelaySites bounds the per-group site ids the grouped-frame decoder is
// fuzzed against, mirroring fuzzMaxCounters for the inner payloads.
const fuzzRelaySites = 16

// FuzzRelayGroups feeds arbitrary bytes through the relay's frame re-encode
// path: decode a grouped frameRelayUpdates payload, fold each group's inner
// updates2 batch into per-site max-merge vectors (exactly the relay's fold),
// re-encode the folded state as one grouped frame the way flushUp does, and
// decode it again. Whatever the input — truncated groups, adversarial
// counts, out-of-range sites or ids — the decoders must error or produce
// well-formed groups, never panic, and the fold → re-encode → decode round
// trip must reproduce the folded per-site state exactly (the invariant that
// makes a relay tier invisible to final estimates). The same bytes also go
// through the production reader (frameFolder into a Relay), read both as
// frameRelayUpdates — where the folded vectors must equal the reference fold
// whenever the reader accepts the frame — and as frameRelayStruct, whose
// fold → re-encode → decode round trip must reproduce the folded cells and
// stamp; a rejected frame must leave the relay untouched.
func FuzzRelayGroups(f *testing.F) {
	for _, seed := range fuzzRelayGroupSeeds() {
		f.Add(seed)
	}
	innerCap := updatesPayloadCap(fuzzMaxCounters)
	f.Fuzz(func(t *testing.T, data []byte) {
		groups, err := decodeRelayGroups(nil, data, fuzzRelaySites, innerCap)
		if err != nil {
			return
		}
		// Fold: the relay's per-site max-merge over monotone counts.
		folded := map[uint32]map[uint32]int64{}
		allValid := true
		for _, g := range groups {
			if g.Site >= fuzzRelaySites {
				t.Fatalf("decodeRelayGroups accepted out-of-range site %d", g.Site)
			}
			ups, err := decodeUpdates2(nil, g.Payload, fuzzMaxCounters)
			if err != nil {
				allValid = false
				continue // garbage inner payload: the relay drops the conn
			}
			m := folded[g.Site]
			if m == nil {
				m = map[uint32]int64{}
				folded[g.Site] = m
			}
			for _, u := range ups {
				if u.LocalCount > m[u.Counter] {
					m[u.Counter] = u.LocalCount
				}
			}
		}
		fuzzRelayFold(t, data, innerCap, folded, allValid)
		// Re-encode the folded state the way flushUp does: per site, the
		// dirty counters ascending, grouped into one frame.
		var out []relayGroup
		var ups []Update
		for site := uint32(0); site < fuzzRelaySites; site++ {
			m := folded[site]
			if len(m) == 0 {
				continue
			}
			ups = ups[:0]
			for id := uint32(0); id < fuzzMaxCounters; id++ {
				if n, ok := m[id]; ok {
					ups = append(ups, Update{Counter: id, LocalCount: n})
				}
			}
			out = append(out, relayGroup{Site: site, Payload: encodeUpdates2(nil, ups)})
		}
		if len(out) == 0 {
			return
		}
		again, err := decodeRelayGroups(nil, encodeRelayGroups(nil, out), fuzzRelaySites, innerCap)
		if err != nil {
			t.Fatalf("re-decode of re-encoded groups failed: %v", err)
		}
		if len(again) != len(out) {
			t.Fatalf("round trip changed group count: %d != %d", len(again), len(out))
		}
		for i, g := range again {
			if g.Site != out[i].Site {
				t.Fatalf("round trip changed group %d site: %d != %d", i, g.Site, out[i].Site)
			}
			ups, err := decodeUpdates2(nil, g.Payload, fuzzMaxCounters)
			if err != nil {
				t.Fatalf("round-tripped group %d payload invalid: %v", i, err)
			}
			m := folded[g.Site]
			if len(ups) != len(m) {
				t.Fatalf("group %d entry count %d, folded %d", i, len(ups), len(m))
			}
			for _, u := range ups {
				if m[u.Counter] != u.LocalCount {
					t.Fatalf("group %d counter %d: round trip %d, folded %d",
						i, u.Counter, u.LocalCount, m[u.Counter])
				}
			}
		}
	})
}

// fuzzRelayFold drives the production reader over one grouped payload that
// decodeRelayGroups accepted; want is the reference fold of its groups read
// as counter updates, complete when allValid.
func fuzzRelayFold(t *testing.T, data []byte, innerCap uint32, want map[uint32]map[uint32]int64, allValid bool) {
	newRelay := func() *Relay {
		r := &Relay{sites: make([]relaySiteState, fuzzRelaySites), flushReq: make(chan struct{}, 1)}
		r.down.init(r, "", StartConfig{Sites: fuzzRelaySites}, fuzzMaxCounters, fuzzMaxCounters)
		r.down.folder.innerCap = innerCap
		return r
	}
	untouched := func(r *Relay, what string) {
		for i := range r.sites {
			if r.sites[i].known {
				t.Fatalf("%s: rejected frame folded into site %d", what, i)
			}
		}
	}

	r := newRelay()
	_, err := r.down.newFolder("fuzz", relayPeer).fold(frameRelayUpdates, data)
	if (err == nil) != allValid {
		t.Fatalf("reader accepted=%v, reference decode allValid=%v (%v)", err == nil, allValid, err)
	}
	if err != nil {
		untouched(r, "updates")
	} else {
		for site := range r.sites {
			got := r.sites[site].counts.drain(nil)
			if len(got) != len(want[uint32(site)]) {
				t.Fatalf("site %d: reader folded %d counters, reference %d", site, len(got), len(want[uint32(site)]))
			}
			for _, u := range got {
				if want[uint32(site)][u.Counter] != u.LocalCount {
					t.Fatalf("site %d counter %d: reader %d, reference %d", site, u.Counter, u.LocalCount, want[uint32(site)][u.Counter])
				}
			}
		}
	}

	r = newRelay()
	if _, err := r.down.newFolder("fuzz", relayPeer).fold(frameRelayStruct, data); err != nil {
		untouched(r, "struct")
		return
	}
	for site := range r.sites {
		s := &r.sites[site]
		if !s.structs.any {
			continue
		}
		cells := slices.Clone(s.structs.vals)
		events, ups, err := decodeStructStats(nil, encodeStructUpdates(s.structEvents, s.structs.drain(nil)), fuzzMaxCounters)
		if err != nil || events != s.structEvents {
			t.Fatalf("site %d: struct round trip: events %d != %d, err %v", site, events, s.structEvents, err)
		}
		if !slices.Equal(denseCounts(len(cells), ups), cells) {
			t.Fatalf("site %d: struct round trip changed the folded cells", site)
		}
	}
}

// fuzzRelayGroupSeeds builds valid grouped payloads (including duplicate
// sites, which the fold must merge) plus truncated and bit-flipped mutants
// and adversarial headers.
func fuzzRelayGroupSeeds() [][]byte {
	one := encodeRelayGroups(nil, []relayGroup{
		{Site: 0, Payload: encodeUpdates2(nil, []Update{{Counter: 1, LocalCount: 5}})},
	})
	multi := encodeRelayGroups(nil, []relayGroup{
		{Site: 2, Payload: encodeUpdates2(nil, []Update{{Counter: 0, LocalCount: 1}, {Counter: 900, LocalCount: 1 << 40}})},
		{Site: 7, Payload: encodeUpdates2(nil, []Update{{Counter: 3, LocalCount: 7}})},
	})
	dup := encodeRelayGroups(nil, []relayGroup{
		{Site: 4, Payload: encodeUpdates2(nil, []Update{{Counter: 10, LocalCount: 3}})},
		{Site: 4, Payload: encodeUpdates2(nil, []Update{{Counter: 10, LocalCount: 9}, {Counter: 11, LocalCount: 1}})},
	})
	empty := encodeRelayGroups(nil, nil)

	var seeds [][]byte
	add := func(payload []byte) {
		seeds = append(seeds, payload)
		if len(payload) > 2 {
			seeds = append(seeds, payload[:len(payload)/2])
			flipped := append([]byte(nil), payload...)
			flipped[len(payload)/3] ^= 0x40
			seeds = append(seeds, flipped)
		}
	}
	add(one)
	add(multi)
	add(dup)
	add(empty)
	// Adversarial headers: huge declared group count, max-varint count,
	// group length larger than the remaining payload.
	seeds = append(seeds, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1})
	seeds = append(seeds, append(maxUvarint(), 1, 1))
	seeds = append(seeds, []byte{1, 0, 0x7f, 1, 2, 3})
	// A frameRelayStruct payload: per group a stamped frameStructStats
	// payload (new seeds go last — the committed corpus is indexed).
	add(encodeRelayGroups(nil, []relayGroup{
		{Site: 1, Payload: encodeStructUpdates(256, []Update{{Counter: 0, LocalCount: 200}, {Counter: 7, LocalCount: 56}})},
		{Site: 1, Payload: encodeStructUpdates(512, []Update{{Counter: 7, LocalCount: 90}, {Counter: 999, LocalCount: 1 << 33}})},
		{Site: 9, Payload: encodeStructUpdates(300, nil)},
	}))
	return seeds
}

// TestWriteFuzzRelayGroupsCorpus regenerates the committed seed corpus for
// FuzzRelayGroups when DISTBAYES_WRITE_FUZZ_CORPUS is set; normally it only
// verifies the corpus directory exists.
func TestWriteFuzzRelayGroupsCorpus(t *testing.T) {
	writeFuzzCorpus(t, filepath.Join("testdata", "fuzz", "FuzzRelayGroups"), fuzzRelayGroupSeeds())
}
