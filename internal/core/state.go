package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"distbayes/internal/counter"
)

// Checkpointing: SaveState serializes a tracker's dynamic state (counter
// contents, RNG position, message metrics, event count) so a coordinator can
// restart without replaying the stream; LoadState restores it into a tracker
// built over the same network with the same Config. Restoring and continuing
// the stream is bit-for-bit identical to never having stopped (see
// TestCheckpointRoundTripEquivalence).
//
// Format DBAYES03: counter state is written as one length-prefixed record
// per bank (two banks per variable — pair then parent), matching the flat
// struct-of-arrays storage, instead of DBAYES02's one record per CPT cell.
// DBAYES03 is the only format LoadState decodes: a DBAYES02 file is rejected
// by its magic, and there is no DBAYES02 decoder.

const stateMagic = "DBAYES03"

// Counter words of the fingerprint: the protocol a tracker's approximate
// banks ran while Config chose one. Every tracker is HYZ now and hashes
// hyzCounterWord; the deterministic threshold counter that was the other
// choice is gone, and a checkpoint hashed with its word is refused by name.
const (
	hyzCounterWord           = 0
	deterministicCounterWord = 1
)

// errDeterministicCounter refuses a checkpoint of a tracker that ran the
// removed deterministic counter: its banks hold round state no bank decodes.
var errDeterministicCounter = errors.New("core: snapshot is of a tracker running the deterministic counter, which was removed (only HYZ and exact trackers load)")

// fingerprint binds a snapshot to the network shape and the configuration
// knobs that affect counter state layout (including the stripe count, which
// fixes which RNG each randomized counter draws from), hashing counterWord
// where the tracker's counter protocol goes.
func (t *Tracker) fingerprint(counterWord uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	w(uint64(t.net.Len()))
	for i := 0; i < t.net.Len(); i++ {
		w(uint64(t.net.Card(i)))
		w(uint64(t.net.ParentCard(i)))
		for _, p := range t.net.Parents(i) {
			w(uint64(p))
		}
	}
	w(uint64(t.cfg.Strategy))
	w(uint64(t.cfg.Sites))
	w(counterWord)
	w(math.Float64bits(t.cfg.Eps))
	w(uint64(len(t.shards)))
	return h.Sum64()
}

// SaveState writes the tracker's dynamic state to w. Every stripe is locked
// for the duration, which excludes torn counter reads, but an in-flight
// multi-stripe update may be captured half-applied (earlier stripes include
// the event, later ones not yet): quiesce ingestion first for a consistent
// snapshot, not just for a specific stream position.
func (t *Tracker) SaveState(w io.Writer) error {
	t.lockAll()
	defer t.unlockAll()
	cw, err := NewCkptWriter(w, stateMagic)
	if err != nil {
		return err
	}
	if err := cw.PutU64(t.fingerprint(hyzCounterWord)); err != nil {
		return err
	}
	if err := cw.PutU64(uint64(t.Events())); err != nil {
		return err
	}
	msgs := t.metrics.Snapshot()
	if err := cw.PutU64(uint64(msgs.SiteToCoord)); err != nil {
		return err
	}
	if err := cw.PutU64(uint64(msgs.CoordToSite)); err != nil {
		return err
	}
	for s := range t.shards {
		for _, v := range t.shards[s].rng.State() {
			if err := cw.PutU64(v); err != nil {
				return err
			}
		}
	}
	writeBank := func(b *counter.Bank) error {
		data, err := b.MarshalBinary()
		if err != nil {
			return err
		}
		return cw.PutRecord(data)
	}
	for i := range t.pair {
		if err := writeBank(t.pair[i]); err != nil {
			return err
		}
		if err := writeBank(t.par[i]); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// LoadState restores a snapshot produced by SaveState. The receiver must
// have been constructed with NewTracker over the same network and Config
// (including the same Shards); a fingerprint mismatch is rejected, and so is
// an all-zero RNG state. Every record is decoded into fresh banks before
// anything changes, so a refused snapshot leaves the tracker as it was. Any cached model snapshot is
// invalidated.
func (t *Tracker) LoadState(r io.Reader) error {
	// rebuildMu before the stripe locks — the same order snapshot rebuilds
	// use — so a query racing LoadState blocks instead of deadlocking; it
	// also lets invalidateSnapshotLocked run under the stripe locks below.
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	t.lockAll()
	defer t.unlockAll()
	cr, err := NewCkptReader(r, stateMagic)
	if err != nil {
		return err
	}
	fp, err := cr.U64()
	if err != nil {
		return err
	}
	if want := t.fingerprint(hyzCounterWord); fp != want {
		if fp == t.fingerprint(deterministicCounterWord) {
			return errDeterministicCounter
		}
		return fmt.Errorf("core: snapshot fingerprint %x does not match tracker %x (different network or config)", fp, want)
	}
	events, err := cr.U64()
	if err != nil {
		return err
	}
	up, err := cr.U64()
	if err != nil {
		return err
	}
	down, err := cr.U64()
	if err != nil {
		return err
	}
	rngStates := make([][4]uint64, len(t.shards))
	for s := range rngStates {
		for i := range rngStates[s] {
			if rngStates[s][i], err = cr.U64(); err != nil {
				return err
			}
		}
		// The all-zero state is xoshiro256**'s fixed point: it draws 0 for
		// ever, so every sampling-mode coin of the stripe would report.
		if rngStates[s] == ([4]uint64{}) {
			return fmt.Errorf("core: snapshot's RNG state of stripe %d is all zero", s)
		}
	}

	readBank := func(b *counter.Bank) error {
		// Reject a corrupt record length before allocating for it: a bank's
		// state size is statically known, so anything else is garbage.
		data, err := cr.RecordExact(uint64(b.StateLen()))
		if err != nil {
			return err
		}
		return b.UnmarshalBinary(data)
	}
	pair, par := make([]*counter.Bank, len(t.pair)), make([]*counter.Bank, len(t.par))
	for i := range pair {
		if pair[i], par[i], err = t.newBanks(i); err != nil {
			return err
		}
		if err := readBank(pair[i]); err != nil {
			return err
		}
		if err := readBank(par[i]); err != nil {
			return err
		}
	}
	copy(t.pair, pair)
	copy(t.par, par)
	t.events.Store(int64(events))
	t.metrics.Store(counter.Metrics{SiteToCoord: int64(up), CoordToSite: int64(down)})
	for s := range t.shards {
		t.shards[s].rng.SetState(rngStates[s])
	}
	t.invalidateSnapshotLocked()
	return nil
}
