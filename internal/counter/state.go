package counter

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file implements binary state snapshots of counter banks: the
// whole-bank record is the unit core.Tracker.SaveState/LoadState checkpoint a
// coordinator with, without replaying the stream. Only dynamic state is
// serialized; the configuration (kind, k, ε, metrics tally, RNG) stays with
// the receiving bank, which must have been constructed identically. Derived
// round parameters are recomputed, not read: pThresh and adj from the
// restored round base, exactly as openRoundHYZ would, and the round-end
// estSum endSum from those and the restored nReporters, as a report would.

var (
	// errExactCellRoundState rejects a record that carries round state for a
	// cell it flags as exact-mode: no counter writes one, and a cell that has
	// not opened a round has no record to hold it.
	errExactCellRoundState = errors.New("counter: state has round data for an exact-mode cell")
	// errNegativeCount rejects a record with a negative count: no stream
	// produces one, and a bank word reads a negative value as a record index.
	errNegativeCount = errors.New("counter: state has a negative count")
	// errCountOffRecord rejects a sampling cell whose count is not the one
	// its round record implies (base + Σ d): a bank keeps no count beside the
	// record, so it could not hold both.
	errCountOffRecord = errors.New("counter: state count disagrees with the cell's round record")
	// errReportsOffRecord rejects a sampling cell whose round record is not
	// the one its sites' reports imply: every reported delta r lies in
	// [0, d], estSum is Σ r and nReporters counts the sites with r > 0.
	// reportHYZ and openRoundHYZ keep all three, and Estimate reads estSum
	// and nReporters, so a record that breaks them would load a wrong
	// estimate.
	errReportsOffRecord = errors.New("counter: state round record disagrees with its sites' reports")
	// errOneWayState refuses to write or read a record of the one-way kind,
	// which has no record format.
	errOneWayState = errors.New("counter: the one-way kind has no state record")
)

func allZero(data []byte) bool {
	for _, v := range data {
		if v != 0 {
			return false
		}
	}
	return true
}

// --- whole-bank snapshots (the DBAYES03 checkpoint unit) ---

// bankStateVersion guards the bank wire format.
const bankStateVersion = 1

// StateLen returns the exact length in bytes of the bank's MarshalBinary
// output. Checkpoint readers use it to reject corrupt record lengths before
// allocating (core.Tracker.LoadState). A one-way bank has no record: 0.
func (b *Bank) StateLen() int {
	const header = 2 + 8 + 8 // version+kind, cells, k
	cells := len(b.word)
	switch b.kind {
	case OneWayKind:
		return 0
	case ExactKind:
		return header + 8*cells
	}
	// total, sampling (1 byte/cell), base, estSum, nReporters, d, r.
	return header + cells*(8+1+8+8+8) + 16*cells*b.k
}

// MarshalBinary implements encoding.BinaryMarshaler for a whole bank: one
// record covering every cell, replacing the per-cell records of the DBAYES02
// checkpoint format. The record is dense — every plane has an entry for
// every cell, in cell order — whatever the bank holds in memory: each cell
// writes its count (derived from its record once it has one), and a cell
// without a round record writes zeros for the record's planes. A one-way
// bank is refused.
func (b *Bank) MarshalBinary() ([]byte, error) {
	if b.kind == OneWayKind {
		return nil, errOneWayState
	}
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
	k := b.k
	putPlane(1, func(s, _ int) int64 { return b.hyz[s].base })
	putPlane(1, func(s, _ int) int64 { return b.hyz[s].estSum })
	putPlane(1, func(s, _ int) int64 { return int64(b.hyz[s].nReporters) })
	putPlane(k, func(s, i int) int64 { return b.sites[s*k+i].d })
	putPlane(k, func(s, i int) int64 { return b.sites[s*k+i].r })
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been constructed with the same kind, cell count and site count. The
// bank checks the record's length, that no count is negative, that no
// exact-mode cell carries round state and that every sampling cell's count
// and round record are the ones its sites' deltas and reports imply before it
// changes anything, then allocates exactly as many round records as the
// record flags cells as sampling.
func (b *Bank) UnmarshalBinary(data []byte) error {
	if len(data) < 2+16 {
		return fmt.Errorf("counter: bank state too short (%d bytes)", len(data))
	}
	if data[0] != bankStateVersion {
		return fmt.Errorf("counter: bank state version %d, want %d", data[0], bankStateVersion)
	}
	if Kind(data[1]) == OneWayKind {
		return errOneWayState
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

// unmarshalRecords restores the words and round records of a HYZ bank from
// the counts, the per-cell mode flags and the dense planes that follow them
// in a length-validated bank record.
func (b *Bank) unmarshalRecords(count func(cell int) int64, flags, planes []byte) error {
	cells, k := len(b.word), b.k
	p := planes
	for _, w := range []int{1, 1, 1, k, k} { // base, estSum, nReporters, d, r
		for cell, f := range flags {
			if f != 1 && !allZero(p[8*w*cell:8*w*(cell+1)]) {
				return errExactCellRoundState
			}
		}
		p = p[8*w*cells:]
	}
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(planes[8*i:])) }
	d := func(cell, site int) int64 { return word(3*cells + cell*k + site) }
	r := func(cell, site int) int64 { return word(3*cells + (cells+cell)*k + site) }
	// fromRecord is the count a cell's round state implies: base + Σ d.
	fromRecord := func(cell int) int64 {
		n := word(cell)
		for i := 0; i < k; i++ {
			n += d(cell, i)
		}
		return n
	}
	// reportsAddUp checks a sampling cell's record against its sites' reports
	// (see errReportsOffRecord).
	reportsAddUp := func(cell int) bool {
		var sum, reporters int64
		for i := 0; i < k; i++ {
			ri := r(cell, i)
			if ri < 0 || ri > d(cell, i) {
				return false
			}
			sum += ri
			if ri > 0 {
				reporters++
			}
		}
		return sum == word(cells+cell) && reporters == word(2*cells+cell)
	}
	records := 0
	for cell, f := range flags {
		switch n := count(cell); {
		case n < 0:
			return errNegativeCount
		case f != 1: // an exact-mode cell: its count is all it has
		case n != fromRecord(cell):
			return errCountOffRecord
		case !reportsAddUp(cell):
			return errReportsOffRecord
		default:
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
		b.hyz[s] = hyzRound{base: word(cell), estSum: word(cells + cell), nReporters: int32(word(2*cells + cell))}
		for i := 0; i < k; i++ {
			b.sites[s*k+i] = hyzSite{d: d(cell, i), r: r(cell, i)}
		}
		b.hyz[s].setProb(ReportProb(k, b.eps, b.hyz[s].base))
		b.hyz[s].setEnd()
	}
	return nil
}
