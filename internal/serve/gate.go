package serve

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"
)

// errShed is returned by gate.enter when both the concurrency limit and
// the wait queue are full: the request is shed (HTTP 429) instead of
// piling onto the snapshot refresh path and collapsing latency for the
// admitted requests.
var errShed = errors.New("serve: over capacity, request shed")

// gate is the admission controller: a concurrency semaphore with a small
// bounded wait queue in front of it. Requests beyond MaxConcurrent wait
// in the queue (bounded, deadline-aware); requests beyond the queue are
// shed immediately. A nil *gate admits everything.
type gate struct {
	sem      chan struct{}
	maxQueue int32
	queued   atomic.Int32
}

func newGate(maxConcurrent, maxQueue int) *gate {
	if maxQueue < 0 {
		maxQueue = 0
	}
	if maxQueue > math.MaxInt32 {
		maxQueue = math.MaxInt32
	}
	return &gate{sem: make(chan struct{}, maxConcurrent), maxQueue: int32(maxQueue)}
}

// enter admits the request (nil), sheds it (errShed), or abandons the
// wait when the request's deadline passes while queued. Pair every nil
// return with leave.
func (g *gate) enter(dl *deadline) error {
	if g == nil {
		return nil
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return errShed
	}
	defer g.queued.Add(-1)
	return dl.wait(g.sem)
}

func (g *gate) leave() {
	if g != nil {
		<-g.sem
	}
}

// inFlight and waiting are point-in-time reads for /statsz.
func (g *gate) inFlight() int {
	if g == nil {
		return 0
	}
	return len(g.sem)
}

func (g *gate) waiting() int {
	if g == nil {
		return 0
	}
	return int(g.queued.Load())
}

// deadline is one request's RequestTimeout, counted from its arrival and
// derived from the request's own context. Its context, and the runtime
// timer behind it, is made only when the request has to wait for a slot —
// queued at the gate or for the snapshot refresh — so a request that finds
// a free slot and a fresh snapshot makes neither.
type deadline struct {
	parent context.Context // the request's own
	at     time.Time       // zero: no timeout, only the parent
	ctx    context.Context
	cancel context.CancelFunc
}

// wait blocks until it can send on slot, or returns the context's error
// once the deadline passes or the client goes away.
func (d *deadline) wait(slot chan<- struct{}) error {
	if d.ctx == nil {
		d.ctx = d.parent
		if !d.at.IsZero() {
			d.ctx, d.cancel = context.WithDeadline(d.parent, d.at)
		}
	}
	select {
	case slot <- struct{}{}:
		return nil
	case <-d.ctx.Done():
		return d.ctx.Err()
	}
}

// stop releases the timer, if wait made one.
func (d *deadline) stop() {
	if d.cancel != nil {
		d.cancel()
	}
}
