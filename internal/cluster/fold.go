package cluster

import (
	"fmt"
	"math/bits"
)

// relayPeer is frameFolder.site for a relay link: its frames are grouped and
// every group names its own site.
const relayPeer = ^uint32(0)

// frameFolder is the receive half of the data plane: the one place the six
// data frames (frameUpdates, frameUpdates2, frameStructStats,
// frameStructDelta from a site; frameRelayUpdates, frameRelayStruct from a
// relay) are decoded. A site frame is handled as a grouped frame of one
// group, so every topology runs the same decode → validate → fold sequence.
// The whole frame is decoded and every id bounds-checked before the first
// entry reaches the target: a malformed frame leaves the folded state
// untouched. One folder serves one connection: it owns the decode scratch
// and the connection's struct reference, from which a frameStructDelta is
// rebuilt into the cumulative counts the target folds.
type frameFolder struct {
	target tierNode
	// from names the connection in errors ("site 3", "relay 1").
	from string
	// site is the connection's site id, or relayPeer.
	site uint32
	// sites is the run's site count and counters the layout's counter count
	// (what the decoders validate against); cells is the structure layout's
	// cell count (0 = learning off); innerCap bounds one group's payload.
	sites, counters, cells, innerCap uint32

	groups []relayGroup
	ups    []Update
	spans  []foldSpan

	// ref is the cumulative cell vector of the last struct frame this site
	// connection delivered, at stream position refAt — what the next
	// frameStructDelta is based on; nil before the connection's first one.
	ref   []int64
	refAt uint64
}

// foldSpan is one decoded group: ups[from:] up to the next span's from.
type foldSpan struct {
	site   uint32
	events uint64
	from   int
}

// fold decodes, validates and folds one frame. data is false (and nothing
// happened) for a frame that is not a data frame — control traffic the
// caller handles itself.
func (f *frameFolder) fold(t byte, payload []byte) (data bool, err error) {
	switch t {
	case frameUpdates, frameUpdates2, frameStructStats, frameStructDelta:
		if f.site == relayPeer {
			return true, fmt.Errorf("cluster: %s sent site frame %d on a relay link", f.from, t)
		}
		f.groups = append(f.groups[:0], relayGroup{Site: f.site, Payload: payload})
	case frameRelayUpdates, frameRelayStruct:
		if f.site != relayPeer {
			return true, fmt.Errorf("cluster: %s sent relay frame %d on a site connection", f.from, t)
		}
		if f.groups, err = decodeRelayGroups(f.groups, payload, f.sites, f.innerCap); err != nil {
			return true, fmt.Errorf("cluster: %s frame %d: %w", f.from, t, err)
		}
	default:
		return false, nil
	}
	isStruct := t == frameStructStats || t == frameStructDelta || t == frameRelayStruct
	if isStruct && f.cells == 0 {
		return true, fmt.Errorf("cluster: %s sent struct stats (frame %d) but structure learning is off", f.from, t)
	}

	f.ups, f.spans = f.ups[:0], f.spans[:0]
	for _, g := range f.groups {
		sp := foldSpan{site: g.Site, from: len(f.ups)}
		switch {
		case t == frameStructDelta && f.ref == nil:
			err = fmt.Errorf("struct-delta frame before any cumulative struct frame on the connection")
		case t == frameStructDelta:
			sp.events, f.ups, err = decodeStructDelta(f.ups, g.Payload, f.ref, f.refAt)
		case isStruct:
			sp.events, f.ups, err = decodeStructStats(f.ups, g.Payload, f.cells)
		case t == frameUpdates:
			f.ups, err = decodeUpdates(f.ups, g.Payload)
		default:
			f.ups, err = decodeUpdates2(f.ups, g.Payload, f.counters)
		}
		if err != nil {
			return true, fmt.Errorf("cluster: %s: site %d frame %d: %w", f.from, g.Site, t, err)
		}
		if !isStruct {
			for _, u := range f.ups[sp.from:] {
				if u.Counter >= f.counters {
					return true, fmt.Errorf("cluster: %s: site %d frame %d: counter %d outside [0,%d)",
						f.from, g.Site, t, u.Counter, f.counters)
				}
			}
		}
		f.spans = append(f.spans, sp)
	}

	if t == frameStructStats || t == frameStructDelta {
		// The frame is valid: it becomes the connection's reference. Its
		// entries overwrite the cells they name; every other cell already
		// holds the frame's value, since a cumulative frame lists every
		// nonzero cell and a delta frame every cell that moved, and counts
		// never fall.
		if f.ref == nil {
			f.ref = make([]int64, f.cells)
		}
		for _, u := range f.ups {
			f.ref[u.Counter] = u.LocalCount
		}
		f.refAt = f.spans[0].events
	}

	for i, sp := range f.spans {
		to := len(f.ups)
		if i+1 < len(f.spans) {
			to = f.spans[i+1].from
		}
		if isStruct {
			f.target.foldStruct(sp.site, sp.events, f.ups[sp.from:to])
		} else {
			f.target.foldCounts(sp.site, f.ups[sp.from:to])
		}
	}
	return true, nil
}

// maxMerge is the receiver-side rule, written once: it raises vals[id] to
// every larger count in ups and passes each raised cell and its growth to
// raised, if non-nil. A relay's per-site vectors mark the cell dirty
// (dirtyVec.merge) and the structure engine adds the growth to the site's
// window; the coordinator's reported rows, folds and checkpoint restores
// alike, need no hook. Ids must lie in [0, len(vals)).
func maxMerge(vals []int64, ups []Update, raised func(id uint32, growth int64)) {
	for _, u := range ups {
		if old := vals[u.Counter]; u.LocalCount > old {
			vals[u.Counter] = u.LocalCount
			if raised != nil {
				raised(u.Counter, u.LocalCount-old)
			}
		}
	}
}

// dirtyVec is a monotone vector that remembers which cells moved since they
// were last drained: a site's latest decided report per counter (written by
// set), or a relay's max-merged view of one site's counters or pair cells
// (written by merge). Both ship it upstream a dirty set at a time. The
// coordinator, the root, has nowhere to ship, so its rows are plain vectors
// under maxMerge. The dirty set is a bitset, so a drain scans it in word
// order and yields ascending ids without sorting. A relay's vectors are sized
// on first merge, so a site that never reports costs nothing.
type dirtyVec struct {
	vals  []int64
	dirty []uint64
	// any short-circuits clean vectors; the owner may also set it to force
	// an (empty) drain, as the struct fold does when only the stamp moved.
	any bool
}

func newDirtyVec(size uint32) dirtyVec {
	return dirtyVec{vals: make([]int64, size), dirty: make([]uint64, (size+63)/64)}
}

// set stores cell id's new value and marks it dirty.
func (v *dirtyVec) set(id uint32, n int64) {
	v.vals[id] = n
	v.mark(id)
}

// mark marks cell id dirty.
func (v *dirtyVec) mark(id uint32) {
	v.dirty[id>>6] |= 1 << (id & 63)
	v.any = true
}

// merge max-merges ups into a vector of size cells and marks the raised
// cells dirty. Ids must lie in [0, size).
func (v *dirtyVec) merge(size uint32, ups []Update) {
	if v.vals == nil {
		*v = newDirtyVec(size)
	}
	maxMerge(v.vals, ups, func(id uint32, _ int64) { v.mark(id) })
}

// drain appends the dirty cells to dst in ascending id order and marks the
// vector clean.
func (v *dirtyVec) drain(dst []Update) []Update {
	for w, word := range v.dirty {
		if word == 0 {
			continue
		}
		v.dirty[w] = 0
		for ; word != 0; word &= word - 1 {
			id := uint32(w<<6 + bits.TrailingZeros64(word))
			dst = append(dst, Update{Counter: id, LocalCount: v.vals[id]})
		}
	}
	v.any = false
	return dst
}

// markAll marks every nonzero cell dirty — a full replay. Counts are monotone
// and the receiving fold is a max-merge, so over-shipping is free.
func (v *dirtyVec) markAll() {
	for id, n := range v.vals {
		if n != 0 {
			v.set(uint32(id), n)
		}
	}
}
