package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"distbayes/internal/core"
)

// Coordinator checkpoint/restore.
//
// Format DBCLUS01, written through the shared DBAYES-family record plumbing
// (core.CkptWriter): the 8-byte magic, then little-endian u64 fields —
// fingerprint, run epoch, frames, updates, site count — then per site its
// done flag (u64 0/1), its recorded event count (u64), and one
// length-prefixed record holding the site's reported-count row encoded as a
// frameUpdates2 payload (nonzero entries only, ids strictly ascending), so
// the checkpoint reuses the wire codec and its validation instead of
// inventing a second matrix serialization.
//
// Crash-safety invariants: the checkpointed matrix holds monotone local
// counts folded with max-merge, so a checkpoint is always a *lower bound* on
// every site's decided reports — a coordinator restored from any cadence
// point converges to the uninterrupted run's exact final state once the
// sites re-resume and replay their decided counts. Periodic checkpoints are
// cadenced on received frames (deterministic, unlike wall clock) and written
// atomically and durably (WriteCheckpointFile), so neither a crash nor a
// power cut mid-write leaves anything but the previous checkpoint or the new
// one.

const checkpointMagic = "DBCLUS01"

// checkpointFingerprint binds a checkpoint to the run parameters that shape
// the reported matrix.
func (co *Coordinator) checkpointFingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	h.Write([]byte(co.cfg.NetName))
	w(co.cfg.CPTSeed)
	w(uint64(co.cfg.Strategy))
	w(math.Float64bits(co.cfg.Eps))
	w(math.Float64bits(co.cfg.Delta))
	w(uint64(co.cfg.Sites))
	w(uint64(co.layout.NumCounters()))
	return h.Sum64()
}

// checkpointState is a decoded DBCLUS01 checkpoint.
type checkpointState struct {
	Fingerprint uint64
	Epoch       uint64
	Frames      uint64
	Updates     uint64
	Sites       []checkpointSite
}

// checkpointSite is one site's membership and matrix row in a checkpoint.
type checkpointSite struct {
	Done   bool
	Events uint64
	Row    []Update
}

// readCheckpoint parses a DBCLUS01 stream, validating every length against
// the caller's bounds before allocating (maxSites bounds the membership
// table, maxCounters bounds each row record through the updates2 decoder) —
// the same discipline as the frame decoders, and fuzzed alongside them by
// FuzzDecodeResumeFrame.
func readCheckpoint(r io.Reader, maxSites, maxCounters uint32) (*checkpointState, error) {
	cr, err := core.NewCkptReader(r, checkpointMagic)
	if err != nil {
		return nil, err
	}
	st := &checkpointState{}
	if st.Fingerprint, err = cr.U64(); err != nil {
		return nil, err
	}
	if st.Epoch, err = cr.U64(); err != nil {
		return nil, err
	}
	if st.Frames, err = cr.U64(); err != nil {
		return nil, err
	}
	if st.Updates, err = cr.U64(); err != nil {
		return nil, err
	}
	sites, err := cr.U64()
	if err != nil {
		return nil, err
	}
	if sites == 0 || sites > uint64(maxSites) {
		return nil, fmt.Errorf("cluster: checkpoint declares %d sites, want 1..%d", sites, maxSites)
	}
	st.Sites = make([]checkpointSite, sites)
	rowCap := uint64(updatesPayloadCap(maxCounters))
	for i := range st.Sites {
		done, err := cr.U64()
		if err != nil {
			return nil, err
		}
		if done > 1 {
			return nil, fmt.Errorf("cluster: checkpoint site %d done flag %d, want 0 or 1", i, done)
		}
		st.Sites[i].Done = done == 1
		if st.Sites[i].Events, err = cr.U64(); err != nil {
			return nil, err
		}
		rec, err := cr.RecordCapped(rowCap)
		if err != nil {
			return nil, err
		}
		if st.Sites[i].Row, err = decodeUpdates2(nil, rec, maxCounters); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// WriteCheckpoint writes the coordinator's current run state to w in the
// DBCLUS01 format. Safe to call while Serve is running: the lock is held just
// long enough to copy the membership table and the matrix, and the encoding
// happens off-lock. Because reports fold with max-merge, a
// checkpoint taken while frames are in flight is simply a slightly earlier
// prefix of the run — restoring it and letting the sites replay converges to
// the identical final state.
func (co *Coordinator) WriteCheckpoint(w io.Writer) error {
	co.mu.Lock()
	sites := make([]checkpointSite, len(co.slots))
	for i := range co.slots {
		sites[i].Done = co.slots[i].done
		sites[i].Events = uint64(co.slots[i].events)
	}
	rows := make([][]int64, len(co.reported))
	for i := range co.reported {
		rows[i] = slices.Clone(co.reported[i].vals)
	}
	frames, updates := co.frames.Load(), co.updates.Load()
	co.mu.Unlock()

	cw, err := core.NewCkptWriter(w, checkpointMagic)
	if err != nil {
		return err
	}
	for _, v := range []uint64{
		co.checkpointFingerprint(), co.epoch,
		uint64(frames), uint64(updates), uint64(len(sites)),
	} {
		if err := cw.PutU64(v); err != nil {
			return err
		}
	}
	var ups []Update
	var buf []byte
	for i := range sites {
		done := uint64(0)
		if sites[i].Done {
			done = 1
		}
		if err := cw.PutU64(done); err != nil {
			return err
		}
		if err := cw.PutU64(sites[i].Events); err != nil {
			return err
		}
		ups = ups[:0]
		for id, n := range rows[i] {
			if n != 0 {
				ups = append(ups, Update{Counter: uint32(id), LocalCount: n})
			}
		}
		buf = encodeUpdates2(buf, ups)
		if err := cw.PutRecord(buf); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// RestoreCheckpoint loads a DBCLUS01 checkpoint into a freshly constructed
// coordinator. Must be called before Serve, with a Config matching the
// checkpointed run (the fingerprint is checked). The run epoch becomes the
// stored epoch plus one, so resuming sites can tell they are talking to a
// restored coordinator.
func (co *Coordinator) RestoreCheckpoint(r io.Reader) error {
	st, err := readCheckpoint(r, uint32(co.cfg.Sites), co.layout.NumCounters())
	if err != nil {
		return err
	}
	if st.Fingerprint != co.checkpointFingerprint() {
		return fmt.Errorf("cluster: checkpoint fingerprint %x does not match run %x (different network or config)",
			st.Fingerprint, co.checkpointFingerprint())
	}
	if len(st.Sites) != co.cfg.Sites {
		return fmt.Errorf("cluster: checkpoint has %d sites, run has %d", len(st.Sites), co.cfg.Sites)
	}
	co.epoch = st.Epoch + 1
	co.frames.Store(int64(st.Frames))
	co.updates.Store(int64(st.Updates))
	for i := range st.Sites {
		if st.Sites[i].Done {
			co.slots[i].done = true
			co.slots[i].events = int64(st.Sites[i].Events)
			co.events.Add(int64(st.Sites[i].Events))
			co.doneCount++
		}
		// readCheckpoint bounded every row id by the layout.
		co.reported[i].merge(co.layout.NumCounters(), st.Sites[i].Row)
	}
	co.version.Add(1) // a snapshot acquired before the restore is stale
	return nil
}

// WriteCheckpointFile writes a checkpoint atomically and durably: the state
// goes to a temporary sibling of path, which is synced to stable storage and
// renamed over path, and then the directory is synced so the rename is too.
// Neither a crash nor a power cut mid-write leaves path torn: it holds the
// previous checkpoint or this one. A failure removes the temporary file.
func (co *Coordinator) WriteCheckpointFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err = co.WriteCheckpoint(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// RestoreCheckpointFile restores the checkpoint stored at path; see
// RestoreCheckpoint.
func (co *Coordinator) RestoreCheckpointFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return co.RestoreCheckpoint(f)
}

// LastCheckpointError returns the most recent failure of the periodic
// checkpoint writer, or nil. Periodic checkpointing is best-effort: a write
// failure is recorded here and the run continues (the previous checkpoint
// file, if any, is still intact thanks to the atomic rename).
func (co *Coordinator) LastCheckpointError() error {
	if p := co.ckptErr.Load(); p != nil {
		return *p
	}
	return nil
}

// checkpointLoop services the frame-cadenced checkpoint requests that
// noteFrame enqueues (nonblocking, so the ingest hot path never waits on
// file IO) and writes one last checkpoint when the run ends: the final one
// after a clean finish, so a coordinator restarted after completion serves
// stats immediately; after an abrupt Close only a cadence request that was
// still pending, so a kill never races a cadence point away. Serve and Close
// join on ckptDone: the loop never outlives them.
func (co *Coordinator) checkpointLoop() {
	defer close(co.ckptDone)
	write := func() {
		if err := co.WriteCheckpointFile(co.cfg.CheckpointPath); err != nil {
			co.ckptErr.Store(&err)
		}
	}
	for {
		select {
		case <-co.ckptCh:
			write()
		case <-co.finishCh:
			if co.finishErr == nil || len(co.ckptCh) > 0 {
				write()
			}
			return
		}
	}
}
