// Package decay implements time-decayed tracking — the paper's future-work
// item (2): "consider time-decay models which give higher weight to more
// recent stream instances".
//
// The design is block-based exponential decay beside an unchanged
// core.Tracker. The stream is divided into blocks of BlockEvents events; the
// tracker's counters count the current block only, and a Tracker here keeps,
// for every CPD cell, the decayed weight of all closed blocks. At each block
// boundary core.Tracker.Rotate hands it every variable's raw rows under the
// tracker's locks, it folds them in as d = γ·(d + live), and the tracker's
// banks start the next block just-built. A decayed count therefore estimates
//
//	C_γ(t) = Σ_blocks γ^{age(block)} · count(block)
//
// with the current block at full weight and O(1) state per cell beyond the
// tracker's. Allocation, stripe RNGs, message protocol and tally are the
// tracker's own (a new block's counters start in exact mode, as fresh
// counters do). Queries read a core.Snapshot built from d + live through
// core.SmoothRows, so every query kernel reads it as it reads the tracker's.
//
// Rotation runs under the tracker's stripe locks, so ingestion may race it:
// each stripe's share of a racing batch lands wholly in the closing block or
// wholly in the next one.
package decay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
)

// Options configures a decayed Tracker.
type Options struct {
	// Gamma is the per-block decay factor in (0, 1].
	Gamma float64
	// BlockEvents is the number of events per block.
	BlockEvents int64
}

func (o Options) validate() error {
	if !(o.Gamma > 0 && o.Gamma <= 1) {
		return fmt.Errorf("decay: gamma = %v, want (0,1]", o.Gamma)
	}
	if o.BlockEvents < 1 {
		return fmt.Errorf("decay: block events = %d, want >= 1", o.BlockEvents)
	}
	return nil
}

// Tracker is a time-decayed view of a core.Tracker. It wraps the tracker
// rather than embedding it: the tracker's own query methods would answer for
// the current block alone.
type Tracker struct {
	tr  *core.Tracker
	opt Options
	// ticks counts the events handed to tr; each multiple of BlockEvents it
	// passes is one rotation.
	ticks atomic.Int64
	// mu guards decayed and orders rotations against Snapshot.
	mu sync.Mutex
	// decayed[i] holds variable i's Σ γ^age · block estimate over the closed
	// blocks, in the CPDRows layout.
	decayed []core.CPDRows
}

// New builds a core.Tracker for net with cfg and wraps it.
func New(net *bn.Network, cfg core.Config, opt Options) (*Tracker, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	tr, err := core.NewTracker(net, cfg)
	if err != nil {
		return nil, err
	}
	t := &Tracker{tr: tr, opt: opt, decayed: make([]core.CPDRows, net.Len())}
	for i := range t.decayed {
		k := net.ParentCard(i)
		t.decayed[i] = core.CPDRows{Pair: make([]float64, net.Card(i)*k), Par: make([]float64, k)}
	}
	return t, nil
}

// Update records one observation (core.Tracker.Update), then advances the
// block clock.
func (t *Tracker) Update(site int, x []int) {
	t.tr.Update(site, x)
	t.tick(1)
}

// UpdateEvents records a batch (core.Tracker.UpdateEvents) cut at block
// boundaries, so a single writer's blocks are exactly BlockEvents events.
// Concurrent writers share one clock.
func (t *Tracker) UpdateEvents(events []core.Event) {
	for len(events) > 0 {
		n := min(int64(len(events)), t.opt.BlockEvents-t.ticks.Load()%t.opt.BlockEvents)
		t.tr.UpdateEvents(events[:n])
		t.tick(n)
		events = events[n:]
	}
}

// tick advances the clock by n events, rotating once per boundary passed.
func (t *Tracker) tick(n int64) {
	now := t.ticks.Add(n)
	for b := (now - n) / t.opt.BlockEvents; b < now/t.opt.BlockEvents; b++ {
		t.mu.Lock()
		t.tr.Rotate(func(i int, live *core.CPDRows) {
			fold(t.decayed[i].Pair, live.Pair, t.opt.Gamma)
			fold(t.decayed[i].Par, live.Par, t.opt.Gamma)
		})
		t.mu.Unlock()
	}
}

func fold(d, live []float64, gamma float64) {
	for c, v := range live {
		d[c] = gamma * (d[c] + v)
	}
}

// rowsLocked reads variable i's decayed raw rows, d + live, into rows.
// Callers hold mu.
func (t *Tracker) rowsLocked(i int, rows *core.CPDRows) {
	t.tr.ReadCPDRows(i, rows)
	for c, d := range t.decayed[i].Pair {
		rows.Pair[c] += d
	}
	for c, d := range t.decayed[i].Par {
		rows.Par[c] += d
	}
}

// Snapshot returns the decayed model: every factor smoothed (with the
// tracker's Config.Smoothing) from d + live. It is garbage-collected —
// Release is a no-op — and its version is the event clock.
func (t *Tracker) Snapshot() *core.Snapshot {
	net, smoothing := t.tr.Network(), t.tr.Config().Smoothing
	factors := make([][]float64, net.Len())
	var par []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range factors {
		rows := core.CPDRows{Par: par} // a fresh Pair: it becomes the factor row
		t.rowsLocked(i, &rows)
		core.SmoothRows(rows.Pair, rows.Par, smoothing, net.Card(i))
		factors[i], par = rows.Pair, rows.Par
	}
	return core.NewSnapshot(net, factors, uint64(t.ticks.Load()), time.Now(), 0)
}

// Messages returns the wrapped tracker's message tally; rotations send none.
func (t *Tracker) Messages() counter.Metrics { return t.tr.Messages() }
