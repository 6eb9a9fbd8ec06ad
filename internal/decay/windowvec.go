// Package decay forgets old stream history — the paper's future-work item
// (2): "consider time-decay models which give higher weight to more recent
// stream instances". Its one form is WindowVec, a block-based sliding window
// over a vector of counts, which the cluster's structure-learning overlay
// keeps its pairwise statistics in so that a drifted structure ages out.
package decay

import "fmt"

// WindowVec is one block-based sliding window over a whole vector of counts
// at once, for consumers that fold externally aggregated deltas (the
// coordinator's windowed pairwise-MI sufficient statistics in
// internal/cluster) rather than per-event Inc calls. The window covers
// approximately windowEvents of history as B blocks of windowEvents/B
// events: Add accumulates into the live block, Advance moves the event clock
// and rotates on block boundaries, and Windowed exposes the running sum of
// the live block plus the most recent B-1 closed blocks — so stale counts age
// out a block at a time (error ≤ one block's worth of events at the trailing
// edge).
//
// WindowVec is not safe for concurrent use; callers serialize access (the
// cluster coordinator uses it under its structure-engine mutex).
type WindowVec struct {
	blockEvents int64
	blocks      int
	clock       int64
	live        []int64
	closed      [][]int64 // oldest first, at most blocks-1 entries
	sum         []int64   // live + closed, maintained incrementally
}

// NewWindowVec creates a window over cells counts covering approximately
// windowEvents of history in the given number of blocks (≥ 2).
func NewWindowVec(cells int, windowEvents int64, blocks int) (*WindowVec, error) {
	if cells < 1 {
		return nil, fmt.Errorf("decay: window cells = %d, want >= 1", cells)
	}
	if blocks < 2 {
		return nil, fmt.Errorf("decay: window blocks = %d, want >= 2", blocks)
	}
	if windowEvents < int64(blocks) {
		return nil, fmt.Errorf("decay: window of %d events too small for %d blocks", windowEvents, blocks)
	}
	return &WindowVec{
		blockEvents: windowEvents / int64(blocks),
		blocks:      blocks,
		live:        make([]int64, cells),
		sum:         make([]int64, cells),
	}, nil
}

// Add folds delta into cell's live-block count (and the window sum).
func (w *WindowVec) Add(cell int, delta int64) {
	w.live[cell] += delta
	w.sum[cell] += delta
}

// Advance moves the event clock forward by events, rotating the live block
// at every block boundary crossed; it returns the number of rotations.
func (w *WindowVec) Advance(events int64) int {
	rotations := 0
	for events > 0 {
		step := w.blockEvents - w.clock%w.blockEvents
		if step > events {
			step = events
		}
		w.clock += step
		events -= step
		if w.clock%w.blockEvents == 0 {
			w.rotate()
			rotations++
		}
	}
	return rotations
}

// rotate closes the live block and expires the block leaving the window.
func (w *WindowVec) rotate() {
	w.closed = append(w.closed, w.live)
	if len(w.closed) > w.blocks-1 {
		expired := w.closed[0]
		w.closed = w.closed[1:]
		for i, c := range expired {
			w.sum[i] -= c
		}
		for i := range expired {
			expired[i] = 0
		}
		w.live = expired // recycle the expired block's storage
	} else {
		w.live = make([]int64, len(w.sum))
	}
}

// Windowed returns the in-window count vector (live block plus retained
// closed blocks). The returned slice is WindowVec-owned and mutated by
// subsequent Add/Advance calls; callers must not modify it and must copy
// any value they retain.
func (w *WindowVec) Windowed() []int64 { return w.sum }

// Clock returns the number of events the window has advanced over.
func (w *WindowVec) Clock() int64 { return w.clock }

// BlockEvents returns the events-per-block granularity of the window.
func (w *WindowVec) BlockEvents() int64 { return w.blockEvents }
