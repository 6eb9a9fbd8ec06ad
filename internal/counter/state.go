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

// MarshalBinary implements encoding.BinaryMarshaler: the historical
// single-counter wire format (flag byte, then total, base, estSum,
// nReporters, k and a (d, r) pair per site as 64-bit words), read off the
// view's bank cell. An exact-mode cell has no round record; its round words
// stay the zeros the format has always carried for it.
func (c *HYZ) MarshalBinary() ([]byte, error) {
	b := c.b
	buf := make([]byte, 1+8*(5+2*b.k))
	put := func(word int, v int64) { binary.LittleEndian.PutUint64(buf[1+8*word:], uint64(v)) }
	put(0, b.total[0])
	put(4, int64(b.k))
	if b.slot[0] >= 0 {
		buf[0] = 1
		put(1, b.hyz[0].base)
		put(2, b.hyz[0].estSum)
		put(3, int64(b.hyz[0].nReporters))
		for i := 0; i < b.k; i++ {
			put(5+2*i, b.d[i])
			put(6+2*i, b.r[i])
		}
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been constructed with the same number of sites as the snapshot.
func (c *HYZ) UnmarshalBinary(data []byte) error {
	if len(data) < 1+5*8 {
		return fmt.Errorf("counter: hyz state too short (%d bytes)", len(data))
	}
	b := c.b
	sampling := data[0] == 1
	get := func(word int) int64 { return int64(binary.LittleEndian.Uint64(data[1+8*word:])) }
	if k := int(get(4)); k != b.k {
		return fmt.Errorf("counter: hyz state has %d sites, counter has %d", k, b.k)
	}
	if len(data) != 1+8*(5+2*b.k) {
		return fmt.Errorf("counter: hyz state site section %d bytes, want %d", len(data)-41, 16*b.k)
	}
	if !sampling && !(allZero(data[9:33]) && allZero(data[41:])) {
		return errExactCellRoundState
	}
	b.total[0] = get(0)
	if !sampling {
		b.resetRecords(0)
		return nil
	}
	b.resetRecords(1)
	b.newRecord(0)
	b.hyz[0] = hyzRound{base: get(1), estSum: get(2), nReporters: int32(get(3))}
	for i := 0; i < b.k; i++ {
		b.d[i], b.r[i] = get(5+2*i), get(6+2*i)
	}
	// Recompute the derived round parameters from base.
	b.hyz[0].setProb(ReportProb(b.k, b.eps, b.hyz[0].base))
	return nil
}

// errExactCellRoundState rejects a record that carries round state for a
// cell it flags as exact-mode: no counter writes one, and a cell that has
// not opened a round has no record to hold it.
var errExactCellRoundState = errors.New("counter: state has round data for an exact-mode cell")

func allZero(data []byte) bool {
	for _, v := range data {
		if v != 0 {
			return false
		}
	}
	return true
}

// MarshalBinary implements encoding.BinaryMarshaler: flag byte, then total,
// base, reported, k and one pending word per site.
func (c *Deterministic) MarshalBinary() ([]byte, error) {
	b := c.b
	buf := make([]byte, 1+8*(4+b.k))
	put := func(word int, v int64) { binary.LittleEndian.PutUint64(buf[1+8*word:], uint64(v)) }
	put(0, b.total[0])
	put(3, int64(b.k))
	if b.slot[0] >= 0 {
		buf[0] = 1
		put(1, b.det[0].base)
		put(2, b.det[0].reported)
		for i, v := range b.pending {
			put(4+i, v)
		}
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (c *Deterministic) UnmarshalBinary(data []byte) error {
	if len(data) < 1+4*8 {
		return fmt.Errorf("counter: deterministic state too short (%d bytes)", len(data))
	}
	b := c.b
	sampling := data[0] == 1
	get := func(word int) int64 { return int64(binary.LittleEndian.Uint64(data[1+8*word:])) }
	if k := int(get(3)); k != b.k {
		return fmt.Errorf("counter: deterministic state has %d sites, counter has %d", k, b.k)
	}
	if len(data) != 1+8*(4+b.k) {
		return fmt.Errorf("counter: deterministic site section %d bytes, want %d", len(data)-33, 8*b.k)
	}
	if !sampling && !(allZero(data[9:25]) && allZero(data[33:])) {
		return errExactCellRoundState
	}
	b.total[0] = get(0)
	if !sampling {
		b.resetRecords(0)
		return nil
	}
	b.resetRecords(1)
	b.newRecord(0)
	b.det[0] = detRound{base: get(1), reported: get(2)}
	for i := range b.pending {
		b.pending[i] = get(4 + i)
	}
	b.restoreQuantum(0)
	return nil
}

// restoreQuantum recomputes record s's deterministic round quantum from its
// restored base, matching openRoundDet without spending messages.
func (b *Bank) restoreQuantum(s int) {
	rd := &b.det[s]
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
	switch b.kind {
	case ExactKind:
		return header + 8*b.cells
	case HYZKind:
		// total, sampling (1 byte/cell), base, estSum, nReporters, d, r.
		return header + b.cells*(8+1+8+8+8) + 16*b.cells*b.k
	default: // DeterministicKind
		// total, sampling (1 byte/cell), base, reported, pending.
		return header + b.cells*(8+1+8+8) + 8*b.cells*b.k
	}
}

// MarshalBinary implements encoding.BinaryMarshaler for a whole bank: one
// record covering every cell, replacing the per-cell records of the DBAYES02
// checkpoint format. The record is dense — every plane has an entry for
// every cell, in cell order — whatever the bank holds in memory: a cell
// without a round record writes zeros.
func (b *Bank) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, b.StateLen())
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	buf = append(buf, bankStateVersion, byte(b.kind))
	put(uint64(b.cells))
	put(uint64(b.k))
	for _, v := range b.total {
		put(uint64(v))
	}
	for _, s := range b.slot {
		if s >= 0 {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	// putPlane writes one plane of the record, w words per cell: word i of a
	// cell comes from its round record s through at, or is zero without one.
	putPlane := func(w int, at func(s, i int) int64) {
		for _, s := range b.slot {
			for i := 0; i < w; i++ {
				var v int64
				if s >= 0 {
					v = at(int(s), i)
				}
				put(uint64(v))
			}
		}
	}
	switch k := b.k; b.kind {
	case HYZKind:
		putPlane(1, func(s, _ int) int64 { return b.hyz[s].base })
		putPlane(1, func(s, _ int) int64 { return b.hyz[s].estSum })
		putPlane(1, func(s, _ int) int64 { return int64(b.hyz[s].nReporters) })
		putPlane(k, func(s, i int) int64 { return b.d[s*k+i] })
		putPlane(k, func(s, i int) int64 { return b.r[s*k+i] })
	case DeterministicKind:
		putPlane(1, func(s, _ int) int64 { return b.det[s].base })
		putPlane(1, func(s, _ int) int64 { return b.det[s].reported })
		putPlane(k, func(s, i int) int64 { return b.pending[s*k+i] })
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The receiver must
// have been constructed with the same kind, cell count and site count. The
// bank checks the record's length and that no exact-mode cell carries round
// state before it changes anything, then allocates exactly as many round
// records as the record flags cells as sampling.
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
	if cells := int(binary.LittleEndian.Uint64(data[2:])); cells != b.cells {
		return fmt.Errorf("counter: bank state has %d cells, bank has %d", cells, b.cells)
	}
	if k := int(binary.LittleEndian.Uint64(data[10:])); k != b.k {
		return fmt.Errorf("counter: bank state has %d sites, bank has %d", k, b.k)
	}
	if len(data) != b.StateLen() {
		return fmt.Errorf("counter: bank state is %d bytes, want %d", len(data), b.StateLen())
	}
	totals, rest := data[18:18+8*b.cells], data[18+8*b.cells:]
	if b.kind != ExactKind {
		if err := b.unmarshalRecords(rest[:b.cells], rest[b.cells:]); err != nil {
			return err
		}
	}
	for i := range b.total {
		b.total[i] = int64(binary.LittleEndian.Uint64(totals[8*i:]))
	}
	return nil
}

// unmarshalRecords restores the round records of a sampling-kind bank from
// the per-cell mode flags and the dense planes that follow them in a
// length-validated bank record.
func (b *Bank) unmarshalRecords(flags, planes []byte) error {
	cells, k := b.cells, b.k
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
	records := 0
	for _, f := range flags {
		if f == 1 {
			records++
		}
	}
	b.resetRecords(records)
	word := func(i int) int64 { return int64(binary.LittleEndian.Uint64(planes[8*i:])) }
	for cell, f := range flags {
		if f != 1 {
			continue
		}
		s := b.newRecord(cell)
		if b.kind == HYZKind {
			b.hyz[s] = hyzRound{base: word(cell), estSum: word(cells + cell), nReporters: int32(word(2*cells + cell))}
			for i := 0; i < k; i++ {
				b.d[s*k+i] = word(3*cells + cell*k + i)
				b.r[s*k+i] = word(3*cells + (cells+cell)*k + i)
			}
			b.hyz[s].setProb(ReportProb(k, b.eps, b.hyz[s].base))
		} else {
			b.det[s] = detRound{base: word(cell), reported: word(cells + cell)}
			for i := 0; i < k; i++ {
				b.pending[s*k+i] = word(2*cells + cell*k + i)
			}
			b.restoreQuantum(s)
		}
	}
	return nil
}
