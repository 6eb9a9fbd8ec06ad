package stream

import (
	"context"
	"sync"

	"distbayes/internal/bn"
	"distbayes/internal/core"
)

// This file is the parallel half of the workload package: per-site
// sub-streams, copying batch generators, and drivers that feed a
// core.Tracker from one goroutine per site — the in-process analogue of the
// paper's k distributed sites absorbing the training stream concurrently.

// FixedAssigner routes every event to one fixed site: the sub-stream seen by
// a single site processor when the stream is horizontally partitioned.
type FixedAssigner struct{ site int }

// NewFixedAssigner creates an assigner pinned to site.
func NewFixedAssigner(site int) *FixedAssigner { return &FixedAssigner{site: site} }

// Next implements Assigner.
func (a *FixedAssigner) Next() int { return a.site }

// NextEvents appends the next n events to dst. Unlike Next, whose buffer is
// reused, the events do not alias each other or later output, so the result
// can be retained, replayed against several trackers, or handed across
// goroutines. The n events of one call are capacity-limited windows of one
// slab (one allocation per call, not per event): appending to an event's X
// reallocates instead of clobbering its neighbour, and a retained event pins
// its call's whole slab.
func (t *Training) NextEvents(dst []core.Event, n int) []core.Event {
	width := len(t.buf)
	slab := make([]int, max(n, 0)*width)
	for j := 0; j < n; j++ {
		site, x := t.Next()
		cp := slab[j*width : (j+1)*width : (j+1)*width]
		copy(cp, x)
		dst = append(dst, core.Event{Site: site, X: cp})
	}
	return dst
}

// NewSiteTraining builds site's independent training sub-stream: a sampler
// seeded seed+site whose every event is routed to site. It is the single
// source of the per-site sub-stream derivation — the TCP cluster sites and
// the in-process parallel engine both use it, which is what makes a cluster
// run and a sharded in-process run over the same StreamSeed ingest
// identical events.
func NewSiteTraining(model *bn.Model, site int, seed uint64) *Training {
	return NewTraining(model, NewFixedAssigner(site), seed+uint64(site))
}

// NewSiteTrainings builds one sub-stream per site via NewSiteTraining. The
// union over sites is a valid model stream, but it is a different
// realization than a single NewTraining stream.
func NewSiteTrainings(model *bn.Model, sites int, seed uint64) []*Training {
	out := make([]*Training, sites)
	for s := 0; s < sites; s++ {
		out[s] = NewSiteTraining(model, s, seed)
	}
	return out
}

// DriveParallel ingests perSite events from each sub-stream into tr on one
// goroutine per stream, in batches of batchSize events whose buffers are
// reused across batches. Sampling and parent-index computation run fully in
// parallel; only the counter increments serialize on the tracker's lock
// stripes. Each goroutine's event sequence is deterministic in its stream's
// seed. Returns the total number of events ingested.
func DriveParallel(tr *core.Tracker, streams []*Training, perSite, batchSize int) int64 {
	if perSite <= 0 {
		return 0
	}
	if batchSize < 1 {
		batchSize = 256
	}
	n := tr.Network().Len()
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func(st *Training) {
			defer wg.Done()
			evs := make([]core.Event, batchSize)
			for i := range evs {
				evs[i].X = make([]int, n)
			}
			for remaining := perSite; remaining > 0; {
				m := min(batchSize, remaining)
				for j := 0; j < m; j++ {
					site, x := st.Next()
					evs[j].Site = site
					copy(evs[j].X, x)
				}
				tr.UpdateEvents(evs[:m])
				remaining -= m
			}
		}(streams[s])
	}
	wg.Wait()
	return int64(perSite) * int64(len(streams))
}

// Produce sends the next n events of t into out (each with its own backing
// array, ready for Tracker.Ingest) and returns how many were sent; it stops
// early if ctx is canceled. The channel is not closed — the caller owns it
// and may multiplex several producers. Cancellation is checked before each
// sample, so an already-canceled context consumes nothing from t; if
// cancellation lands while a send is blocked, that one sampled event is
// discarded (t has advanced past it), so a canceled producer's Training
// should not be reused where seed-exact replay matters.
func Produce(ctx context.Context, t *Training, n int, out chan<- core.Event) int64 {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	for j := 0; j < n; j++ {
		select {
		case <-done:
			return int64(j)
		default:
		}
		site, x := t.Next()
		cp := make([]int, len(x))
		copy(cp, x)
		select {
		case out <- core.Event{Site: site, X: cp}:
		case <-done:
			return int64(j)
		}
	}
	return int64(n)
}
