package counter

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements binary state snapshots for the counters and counter
// banks. The whole-bank record is the unit core.Tracker.SaveState/LoadState
// checkpoint a coordinator with, without replaying the stream; the per-cell
// records of the one-cell views below sit inside no checkpoint container
// (DBAYES02, which held them, no longer decodes) and are kept as the
// historical single-counter wire formats. Only dynamic state is serialized;
// the configuration (k, ε, metrics sink, RNG) stays with the receiving
// object, which must have been constructed identically. Derived round
// parameters (pThresh/adj, quantum) are recomputed from the restored round
// base, exactly as the constructors would.

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *Exact) MarshalBinary() ([]byte, error) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(c.total))
	return b[:], nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Exact) UnmarshalBinary(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("counter: exact state length %d, want 8", len(data))
	}
	c.total = int64(binary.LittleEndian.Uint64(data))
	return nil
}

// The one-cell views (HYZ, Deterministic) keep their historical per-cell
// records: a flag byte (1 = sampling), then 64-bit words — for HYZ the
// count, base, estSum, nReporters, k and a (d, r) pair per site; for
// Deterministic the count, base, reported, k and one pending word per site.
// They are the view's one-cell bank record with its words in another order:
// the views marshal through the bank's writer and load through its
// validating reader, so an exact-mode cell keeps writing the zero round
// words the format has always carried for it and a view refuses whatever a
// bank refuses.

// viewWords returns where the per-cell record of b's kind keeps the site
// count, and, in the order of b's one-cell bank record, the words of the
// round planes (base, estSum, nReporters, d…, r… — or base, reported,
// pending…).
func (b *Bank) viewWords() (kWord int, planes []int) {
	if b.kind == HYZKind {
		planes = []int{1, 2, 3}
		for i := 0; i < 2*b.k; i++ {
			planes = append(planes, 5+2*(i%b.k)+i/b.k)
		}
		return 4, planes
	}
	planes = []int{1, 2}
	for i := 0; i < b.k; i++ {
		planes = append(planes, 4+i)
	}
	return 3, planes
}

// MarshalBinary implements encoding.BinaryMarshaler: the view's per-cell
// record, read off its one-cell bank.
func (v *oneCell) MarshalBinary() ([]byte, error) {
	b := v.b
	rec, _ := b.MarshalBinary() // a bank's writer never fails
	kWord, planes := b.viewWords()
	buf := make([]byte, 1+8*(2+len(planes)))
	buf[0] = rec[26]                  // the mode flag
	copy(buf[1:], rec[18:26])         // the count
	copy(buf[1+8*kWord:], rec[10:18]) // k
	for j, w := range planes {
		copy(buf[1+8*w:], rec[27+8*j:][:8])
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been constructed with the same number of sites as the snapshot.
func (v *oneCell) UnmarshalBinary(data []byte) error {
	b := v.b
	kWord, planes := b.viewWords()
	if len(data) < 1+8*(kWord+1) {
		return fmt.Errorf("counter: one-cell state too short (%d bytes)", len(data))
	}
	if k := int(binary.LittleEndian.Uint64(data[1+8*kWord:])); k != b.k {
		return fmt.Errorf("counter: one-cell state has %d sites, counter has %d", k, b.k)
	}
	if len(data) != 1+8*(2+len(planes)) {
		return fmt.Errorf("counter: one-cell state is %d bytes, want %d", len(data), 1+8*(2+len(planes)))
	}
	rec := make([]byte, 27, b.StateLen())
	rec[0], rec[1] = bankStateVersion, byte(b.kind)
	binary.LittleEndian.PutUint64(rec[2:], 1)
	copy(rec[10:], data[1+8*kWord:][:8])
	copy(rec[18:], data[1:9])
	rec[26] = data[0]
	for _, w := range planes {
		rec = append(rec, data[1+8*w:][:8]...)
	}
	return b.UnmarshalBinary(rec)
}

var (
	// errExactCellRoundState rejects a record that carries round state for a
	// cell it flags as exact-mode: no counter writes one, and a cell that has
	// not opened a round has no record to hold it.
	errExactCellRoundState = errors.New("counter: state has round data for an exact-mode cell")
	// errNegativeCount rejects a record with a negative count: no stream
	// produces one, and a bank word reads a negative value as a record index.
	errNegativeCount = errors.New("counter: state has a negative count")
	// errCountOffRecord rejects a sampling cell whose count is not the one
	// its round record implies (base + Σ d, or base + reported + Σ pending):
	// a bank keeps no count beside the record, so it could not hold both.
	errCountOffRecord = errors.New("counter: state count disagrees with the cell's round record")
)

// checkCount validates a cell's recorded count: it is never negative, and a
// sampling cell's is fromRecord, the count its round record implies.
func checkCount(count int64, sampling bool, fromRecord int64) error {
	switch {
	case count < 0:
		return errNegativeCount
	case sampling && count != fromRecord:
		return errCountOffRecord
	}
	return nil
}

func allZero(data []byte) bool {
	for _, v := range data {
		if v != 0 {
			return false
		}
	}
	return true
}

// restoreQuantum recomputes record s's deterministic round quantum from its
// restored base, matching openRoundDet without spending messages.
func (b *Bank) restoreQuantum(s int) {
	rd := &b.det.rounds[s]
	q := b.eps * float64(rd.base) / float64(b.k)
	rd.quantum = int64(q)
	if float64(rd.quantum) < q {
		rd.quantum++
	}
	if rd.quantum < 1 {
		rd.quantum = 1
	}
}

// --- whole-bank snapshots (the DBAYES03 checkpoint unit) ---

// bankStateVersion guards the bank wire format.
const bankStateVersion = 1

// StateLen returns the exact length in bytes of the bank's MarshalBinary
// output. Checkpoint readers use it to reject corrupt record lengths before
// allocating (core.Tracker.LoadState).
func (b *Bank) StateLen() int {
	const header = 2 + 8 + 8 // version+kind, cells, k
	cells := len(b.word)
	switch b.kind {
	case ExactKind:
		return header + 8*cells
	case HYZKind:
		// total, sampling (1 byte/cell), base, estSum, nReporters, d, r.
		return header + cells*(8+1+8+8+8) + 16*cells*b.k
	default: // DeterministicKind
		// total, sampling (1 byte/cell), base, reported, pending.
		return header + cells*(8+1+8+8) + 8*cells*b.k
	}
}

// MarshalBinary implements encoding.BinaryMarshaler for a whole bank: one
// record covering every cell, replacing the per-cell records of the DBAYES02
// checkpoint format. The record is dense — every plane has an entry for
// every cell, in cell order — whatever the bank holds in memory: each cell
// writes its count (derived from its record once it has one), and a cell
// without a round record writes zeros for the record's planes.
func (b *Bank) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, b.StateLen())
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	buf = append(buf, bankStateVersion, byte(b.kind))
	put(uint64(len(b.word)))
	put(uint64(b.k))
	for cell := range b.word {
		put(uint64(b.Exact(cell)))
	}
	if b.kind == ExactKind {
		return buf, nil
	}
	for _, v := range b.word {
		if v < 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	// putPlane writes one plane of the record, w words per cell: word i of a
	// cell comes from its round record s through at, or is zero without one.
	putPlane := func(w int, at func(s, i int) int64) {
		for _, v := range b.word {
			for i := 0; i < w; i++ {
				var x int64
				if v < 0 {
					x = at(int(^v), i)
				}
				put(uint64(x))
			}
		}
	}
	switch k := b.k; b.kind {
	case HYZKind:
		putPlane(1, func(s, _ int) int64 { return b.hyz[s].base })
		putPlane(1, func(s, _ int) int64 { return b.hyz[s].estSum })
		putPlane(1, func(s, _ int) int64 { return int64(b.hyz[s].nReporters) })
		putPlane(k, func(s, i int) int64 { return b.sites[s*k+i].d })
		putPlane(k, func(s, i int) int64 { return b.sites[s*k+i].r })
	case DeterministicKind:
		putPlane(1, func(s, _ int) int64 { return b.det.rounds[s].base })
		putPlane(1, func(s, _ int) int64 { return b.det.rounds[s].reported })
		putPlane(k, func(s, i int) int64 { return b.det.pending[s*k+i] })
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been constructed with the same kind, cell count and site count. The
// bank checks the record's length, that no count is negative, that no
// exact-mode cell carries round state and that every sampling cell's count is
// the one its round state implies before it changes anything, then allocates
// exactly as many round records as the record flags cells as sampling.
func (b *Bank) UnmarshalBinary(data []byte) error {
	if len(data) < 2+16 {
		return fmt.Errorf("counter: bank state too short (%d bytes)", len(data))
	}
	if data[0] != bankStateVersion {
		return fmt.Errorf("counter: bank state version %d, want %d", data[0], bankStateVersion)
	}
	if Kind(data[1]) != b.kind {
		return fmt.Errorf("counter: bank state kind %d, bank has %d", data[1], b.kind)
	}
	cells := len(b.word)
	if n := int(binary.LittleEndian.Uint64(data[2:])); n != cells {
		return fmt.Errorf("counter: bank state has %d cells, bank has %d", n, cells)
	}
	if k := int(binary.LittleEndian.Uint64(data[10:])); k != b.k {
		return fmt.Errorf("counter: bank state has %d sites, bank has %d", k, b.k)
	}
	if len(data) != b.StateLen() {
		return fmt.Errorf("counter: bank state is %d bytes, want %d", len(data), b.StateLen())
	}
	counts, rest := data[18:18+8*cells], data[18+8*cells:]
	count := func(cell int) int64 { return int64(binary.LittleEndian.Uint64(counts[8*cell:])) }
	if b.kind != ExactKind {
		return b.unmarshalRecords(count, rest[:cells], rest[cells:])
	}
	for cell := range b.word {
		if count(cell) < 0 {
			return errNegativeCount
		}
	}
	for cell := range b.word {
		b.word[cell] = count(cell)
	}
	return nil
}

// unmarshalRecords restores the words and round records of a sampling-kind
// bank from the counts, the per-cell mode flags and the dense planes that
// follow them in a length-validated bank record.
func (b *Bank) unmarshalRecords(count func(cell int) int64, flags, planes []byte) error {
	cells, k := len(b.word), b.k
	// Words per cell of each plane: base, estSum, nReporters, d, r — or
	// base, reported, pending.
	widths := []int{1, 1, 1, k, k}
	if b.kind == DeterministicKind {
		widths = []int{1, 1, k}
	}
	p := planes
	for _, w := range widths {
		for cell, f := range flags {
			if f != 1 && !allZero(p[8*w*cell:8*w*(cell+1)]) {
				return errExactCellRoundState
			}
		}
		p = p[8*w*cells:]
	}
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(planes[8*i:])) }
	// fromRecord is the count a cell's round state implies: base plus the
	// per-site deltas (d, or pending), plus reported for the deterministic
	// kind.
	fromRecord := func(cell int) int64 {
		n, sites := word(cell), 3*cells
		if b.kind == DeterministicKind {
			n, sites = n+word(cells+cell), 2*cells
		}
		for i := 0; i < k; i++ {
			n += word(sites + cell*k + i)
		}
		return n
	}
	records := 0
	for cell, f := range flags {
		if err := checkCount(count(cell), f == 1, fromRecord(cell)); err != nil {
			return err
		}
		if f == 1 {
			records++
		}
	}
	b.resetRecords(records)
	for cell, f := range flags {
		if f != 1 {
			b.word[cell] = count(cell)
			continue
		}
		s := b.newRecord(cell)
		if b.kind == HYZKind {
			b.hyz[s] = hyzRound{base: word(cell), estSum: word(cells + cell), nReporters: int32(word(2*cells + cell))}
			for i := 0; i < k; i++ {
				b.sites[s*k+i] = hyzSite{d: word(3*cells + cell*k + i), r: word(3*cells + (cells+cell)*k + i)}
			}
			b.hyz[s].setProb(ReportProb(k, b.eps, b.hyz[s].base))
		} else {
			b.det.rounds[s] = detRound{base: word(cell), reported: word(cells + cell)}
			for i := 0; i < k; i++ {
				b.det.pending[s*k+i] = word(2*cells + cell*k + i)
			}
			b.restoreQuantum(s)
		}
	}
	return nil
}
