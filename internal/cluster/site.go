package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// ErrSiteCrashed is returned by Site.Run when the CrashAfterEvents chaos
// hook fires: the site stops dead at a deterministic stream position without
// sending its Done marker — the tests' stand-in for kill -9 of a site
// process. A fresh Site for the same id restarted against the coordinator
// rejoins with a hello and replays its stream from event zero; per-site
// determinism makes the replayed report decisions identical, so the run's
// final estimates are unchanged.
var ErrSiteCrashed = errors.New("cluster: site crashed (chaos hook)")

// Site is one stream-receiving processor of the monitoring system. It
// connects to the coordinator (or to a relay — the handshake is the same),
// receives its StartConfig, generates its share of the training stream
// locally, and runs the site half of the counter protocol: siteRun.stream,
// the one stream loop, writing its reports to its connection.
//
// The connection is supervised: a transient dial failure retries with
// exponential backoff and deterministic jitter (retryPolicy), and a
// connection lost mid-run reconnects with a resume handshake — the site keeps
// its stream position and counter state across reconnects, replays its
// latest decided per-counter local counts in one frame (safe: counts are
// monotone and the receiver's fold is max-merge, so the replay is
// idempotent), and continues the stream where it stopped.
type Site struct {
	id   uint32
	addr string

	// MaxResumes bounds *consecutive* reconnect attempts that make no stream
	// progress; 0 selects the default (32). A resume that advances the
	// stream position resets the budget, so a long run under repeated
	// connection faults survives any number of cuts as long as each
	// connection gets some work done — only a genuine livelock (the
	// coordinator gone for good, or cuts faster than progress) drains the
	// budget, and Run then returns the last connection error.
	MaxResumes int
	// DialAttempts bounds consecutive failed dials per connection attempt; 0
	// selects the default (8).
	DialAttempts int
	// RetryBase and RetryCap shape the exponential backoff between dial
	// attempts (and between resume attempts): the nth retry waits
	// RetryBase·2ⁿ plus up to 50% deterministic jitter, capped at RetryCap.
	// Zero selects the defaults (20ms, 1s).
	RetryBase, RetryCap time.Duration
	// CrashAfterEvents, when nonzero, makes Run return ErrSiteCrashed as
	// soon as the site's stream position reaches this many events, without
	// sending Done — a deterministic chaos hook (stream positions do not
	// depend on timing, so the crash point is exactly reproducible).
	CrashAfterEvents uint64
}

// NewSite prepares a site with the given id targeting the coordinator's
// address.
func NewSite(id uint32, addr string) *Site { return &Site{id: id, addr: addr} }

// retryPolicy is the dial/backoff policy Site and Relay share; zero fields
// select the defaults (8 attempts, 20ms base, 1s cap).
type retryPolicy struct {
	attempts  int
	base, cap time.Duration
}

// backoff returns the wait before retry attempt n (0-based): exponential
// with deterministic jitter from jrng, capped.
func (p retryPolicy) backoff(n int, jrng *bn.RNG) time.Duration {
	base, cap := p.base, p.cap
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	d := base << uint(min(n, 20))
	if d > cap || d <= 0 {
		d = cap
	}
	// Up to 50% jitter, drawn from a seeded generator so two peers that fail
	// together do not thunder back together — and so tests stay reproducible.
	return d + time.Duration(jrng.Float64()*0.5*float64(d))
}

// try runs connect until it succeeds, fails terminally, or the attempt
// budget is spent, backing off between attempts; a peer that is briefly down
// (a coordinator restarting from a checkpoint, say) just costs a few retries.
// A close of stop (nil: never) cuts a backoff wait short.
func (p retryPolicy) try(jrng *bn.RNG, stop <-chan struct{}, connect func() (terminal bool, err error)) error {
	attempts := p.attempts
	if attempts <= 0 {
		attempts = 8
	}
	var err error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			select {
			case <-time.After(p.backoff(n-1, jrng)):
			case <-stop:
			}
		}
		var terminal bool
		if terminal, err = connect(); err == nil || terminal {
			return err
		}
	}
	return err
}

// dialSite dials addr under the policy on behalf of site id.
func (p retryPolicy) dialSite(id uint32, addr string, jrng *bn.RNG) (raw net.Conn, err error) {
	err = p.try(jrng, nil, func() (bool, error) {
		raw, err = net.Dial("tcp", addr)
		return false, err
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: site %d dial: %w", id, err)
	}
	return raw, nil
}

// siteRun is the state a site keeps across reconnects: the decoded run
// configuration, the regenerated model and layout, the approximate-counter
// state, the stream position, and — the crux of crash safety —
// counts.reported, the latest *decided* report per counter. Replaying it
// on resume restores the coordinator's row for this site to exactly the value
// an uninterrupted run would have reached, because the final matrix cell only
// ever holds the latest decided report (monotone counts, max-merge fold).
type siteRun struct {
	cfg      StartConfig
	netw     *bn.Network
	layout   *counterLayout
	counts   *siteCounters
	rng      *bn.RNG
	training *stream.Training
	// next is the index of the next stream event to process.
	next uint64
	// doneSent records that the coordinator accepted this site's Done
	// marker (learned from a resume ack's resumeSiteDone flag).
	doneSent bool
	// pairs holds the structure-learning overlay's cumulative pairwise
	// co-occurrence counts (nil with learning off). Counts are monotone, so a
	// replayed frame max-merges to a no-op on the coordinator.
	pairs *pairAccumulator
	// shipped is the cumulative vector the last struct frame on connection
	// shippedOn carried, at stream position shippedAt: the base of the next
	// frameStructDelta on that connection. nil when the receiver takes
	// cumulative frames only (StartConfig.StructDelta unset).
	shipped   []int64
	shippedAt uint64
	shippedOn *conn
	// drift is the post-drift generating stream (nil without drift); events
	// at positions ≥ cfg.DriftAtEvent are drawn from it instead of training.
	// Its DAG is not the tracked one, so its events' parent indices are
	// recomputed over netw into driftPidx.
	drift     *stream.Training
	driftPidx []int
	// ups and buf are the window and frame scratch reused across frames.
	ups []Update
	buf []byte
}

// newSiteRun regenerates the deterministic run state from a StartConfig.
func newSiteRun(id uint32, cfg StartConfig) (*siteRun, error) {
	netw, err := netgen.ByName(cfg.NetName)
	if err != nil {
		return nil, err
	}
	opt := netgen.DefaultCPTOptions()
	opt.Seed = cfg.CPTSeed
	cpds, err := netgen.GenCPTs(netw, opt)
	if err != nil {
		return nil, err
	}
	model, err := bn.NewModel(netw, cpds)
	if err != nil {
		return nil, err
	}
	layout, err := newCounterLayout(netw, core.Strategy(cfg.Strategy), cfg.Eps)
	if err != nil {
		return nil, err
	}
	st := &siteRun{
		cfg:    cfg,
		netw:   netw,
		layout: layout,
		counts: newSiteCounters(layout, int(cfg.Sites)),
		rng:    bn.NewRNG(cfg.StreamSeed ^ (uint64(id) * 0x9e3779b97f4a7c15)),
		// The site's share of the stream is the same per-site sub-stream the
		// in-process parallel engine uses — one shared constructor guards the
		// cluster-vs-in-process equivalence.
		training: stream.NewSiteTraining(model, int(id), cfg.StreamSeed),
		ups:      make([]Update, 0, 2*netw.Len()),
	}
	if cfg.StructBatchEvents > 0 {
		sl, err := NewStructLayout(netw)
		if err != nil {
			return nil, err
		}
		st.pairs = newPairAccumulator(sl)
		if cfg.StructDelta {
			st.shipped = make([]int64, sl.Cells())
		}
	}
	if cfg.DriftNetName != "" {
		driftNet, err := netgen.ByName(cfg.DriftNetName)
		if err != nil {
			return nil, err
		}
		if err := netw.SameVariables(driftNet); err != nil {
			return nil, fmt.Errorf("cluster: drift network %q incompatible with %q: %w",
				cfg.DriftNetName, cfg.NetName, err)
		}
		opt := netgen.DefaultCPTOptions()
		opt.Seed = cfg.DriftCPTSeed
		driftCPDs, err := netgen.GenCPTs(driftNet, opt)
		if err != nil {
			return nil, err
		}
		driftModel, err := bn.NewModel(driftNet, driftCPDs)
		if err != nil {
			return nil, err
		}
		// A fixed seed derivation keeps the drift stream deterministic across
		// restarts: both halves of the stream are pure functions of the
		// StartConfig and the absolute event position.
		st.drift = stream.NewSiteTraining(driftModel, int(id), cfg.StreamSeed^0xd21f7a3c5e9b11)
		st.driftPidx = make([]int, netw.Len())
	}
	return st, nil
}

// nextEvent draws the site's next stream event and its parent-configuration
// indices over the tracked network: from the base generating model before the
// drift point, from the drift model at and after it. Both sub-streams advance
// only when consumed, and the switch is a pure function of the absolute
// position st.next, so a restart's replay from event zero regenerates the
// identical stream. The base sampler computed the indices on its way (its
// network is the tracked one); the drift sampler's are over a different DAG —
// the one case that must ask netw.
func (st *siteRun) nextEvent() (x, pidx []int) {
	if st.drift != nil && st.next >= st.cfg.DriftAtEvent {
		_, x = st.drift.Next()
		for i := range st.driftPidx {
			st.driftPidx[i] = st.netw.ParentIndex(i, x)
		}
		return x, st.driftPidx
	}
	_, x = st.training.Next()
	return x, st.training.ParentIndices()
}

// stream is the site half of the counter protocol — the one stream loop,
// whatever the topology: draw the event, count it (siteCounters.event: every
// touched counter incremented, its report decided and recorded — same
// counters, same RNG draws in the same order in every mode, bit-identical to
// the historical per-counter loop), and at every window boundary ship the
// window's reports on c. Resumes from st.next; window boundaries are absolute
// stream positions, so a reconnect does not shift the frame schedule.
//
// The window is cfg.BatchEvents events; 0 is the per-event protocol, a
// window of one — the paper's transmission optimization (all reports one
// event triggers share a frame, an event that triggers none sends nothing),
// which batching extends across events. A report is delayed by at most one
// window, staleness of the same kind as the trailing gap the report
// probability already models. crashAt is the CrashAfterEvents chaos hook (0
// = off).
func (st *siteRun) stream(c *conn, crashAt uint64) error {
	cfg := st.cfg
	window := uint64(max(cfg.BatchEvents, 1))
	latency := time.Duration(cfg.LatencyMicros) * time.Microsecond
	// Per-event frames without artificial latency ride the 64KB connection
	// buffer, flushed on a fixed event cadence so the coordinator's
	// continuous view stays fresh even on low-rate counters. A multi-event
	// window frame is rare by construction and is pushed out immediately, so
	// the live view stays at most one window stale.
	const flushEvery = 1024
	buffered := cfg.BatchEvents == 0 && latency == 0

	for st.next < cfg.Events {
		if crashAt > 0 && st.next >= crashAt {
			return ErrSiteCrashed
		}
		x, pidx := st.nextEvent()
		if st.pairs != nil {
			st.pairs.add(x)
		}
		st.counts.event(x, pidx, st.rng)
		// The event is consumed the moment the sample is drawn and the
		// decisions recorded; advance before any fallible write so a broken
		// connection can never replay a consumed sample (the decisions it
		// carried are in counts.reported and covered by resume replay).
		st.next++
		if st.next%window == 0 && st.counts.reported.any {
			if err := st.shipWindow(c); err != nil {
				return err
			}
			if !buffered {
				if err := c.flush(); err != nil {
					return err
				}
				time.Sleep(latency)
			}
		}
		if st.pairs != nil && st.next%uint64(cfg.StructBatchEvents) == 0 {
			if err := st.shipStruct(c); err != nil {
				return err
			}
		}
		// The cadence check runs even for report-less events, so a frame
		// buffered during a long quiet stretch still reaches the coordinator
		// promptly.
		if buffered && st.next%flushEvery == 0 {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	// The tails shorter than one window / one struct cadence.
	if err := st.shipWindow(c); err != nil {
		return err
	}
	if err := st.shipStruct(c); err != nil {
		return err
	}
	return c.flush()
}

// shipWindow is the one writer of decided reports: it frames the pending
// window — the latest decided count of every counter with a report since the
// last window, ascending — as one frameUpdates2 frame, and an empty window as
// none. The window is emptied before the fallible write — a frame lost with
// its connection is covered by replay.
func (st *siteRun) shipWindow(c *conn) error {
	st.ups = st.counts.reported.drain(st.ups[:0])
	if len(st.ups) == 0 {
		return nil
	}
	st.buf = encodeUpdates2(st.buf, st.ups)
	return c.writeFrame(frameUpdates2, st.buf)
}

// shipStruct sends the site's pairwise co-occurrence counts at its stream
// position as one struct frame (a no-op with structure learning off or
// before the first event) and flushes. The first struct frame on c is the
// full cumulative vector (frameStructStats), self-contained so that a new
// connection — a resume replay included — needs nothing from the old one;
// after it, when the receiver decodes them, each frame carries only the
// increments since the previous one (frameStructDelta).
func (st *siteRun) shipStruct(c *conn) error {
	if st.pairs == nil || st.next == 0 {
		return nil
	}
	cum := st.pairs.cumulative()
	t := frameStructStats
	if st.shipped != nil && st.shippedOn == c {
		t = frameStructDelta
		st.buf = encodeStructDelta(st.buf, st.shippedAt, st.next, cum, st.shipped)
	} else {
		st.buf = encodeStructStats(st.buf, st.next, cum)
	}
	if st.shipped != nil {
		copy(st.shipped, cum)
		st.shippedAt, st.shippedOn = st.next, c
	}
	return c.send(t, st.buf)
}

// replay ships the site's latest decided report for every counter it ever
// reported, as one coalesced window — a superset of whatever window was
// pending when the connection died. Idempotent by construction: every
// replayed count is ≤ the count an uninterrupted run would have delivered by
// now, and the coordinator keeps the max.
func (st *siteRun) replay(c *conn) error {
	st.counts.reported.markAll()
	if err := st.shipWindow(c); err != nil {
		return err
	}
	// Re-ship the cumulative structure statistics too: a coordinator
	// restored from a checkpoint restarts with an empty MI window, and the
	// replayed cumulative counts (max-merged, so a no-op when nothing was
	// lost) put the per-site statistics back.
	if err := st.shipStruct(c); err != nil {
		return err
	}
	return c.flush()
}

// hello opens the handshake on a fresh connection — with frameHello for a
// site, frameRelayHello for a relay, either carrying the sender's id — and
// decodes the StartConfig reply. terminal marks a protocol violation, which a
// retry cannot cure.
func hello(c *conn, opening byte, id uint32) (cfg StartConfig, terminal bool, err error) {
	if err := c.send(opening, encodeHello(id)); err != nil {
		return cfg, false, err
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return cfg, false, fmt.Errorf("waiting for start: %w", err)
	}
	if t != frameStart {
		return cfg, true, fmt.Errorf("got frame %d, want start", t)
	}
	cfg, err = decodeStart(payload)
	return cfg, true, err
}

// awaitStats reads frames until the coordinator's closing stats arrive.
func awaitStats(c *conn, id uint32) (Stats, error) {
	for {
		t, payload, err := c.readFrame()
		if err != nil {
			return Stats{}, fmt.Errorf("cluster: site %d waiting for stats: %w", id, err)
		}
		if t == frameStats {
			return decodeStats(payload)
		}
	}
}

func (s *Site) retry() retryPolicy {
	return retryPolicy{attempts: s.DialAttempts, base: s.RetryBase, cap: s.RetryCap}
}

// Run connects, processes the configured stream, and returns the
// coordinator's closing Stats. Run supervises its connection: dial failures
// retry with backoff, and a connection lost mid-run resumes (see the Site
// doc comment) until MaxResumes is exhausted.
func (s *Site) Run() (Stats, error) {
	jrng := bn.NewRNG(0xc1a05c0de ^ (uint64(s.id) * 0x9e3779b97f4a7c15))
	maxResumes := s.MaxResumes
	if maxResumes <= 0 {
		maxResumes = 32
	}
	var st *siteRun
	stalled := 0 // consecutive resumes without stream progress
	for {
		raw, err := s.retry().dialSite(s.id, s.addr, jrng)
		if err != nil {
			return Stats{}, err
		}
		var before uint64
		if st != nil {
			before = st.next
		}
		stats, terminal, err := s.runConn(raw, &st)
		raw.Close()
		if terminal {
			return stats, err
		}
		if st != nil && st.next > before {
			stalled = 0 // the connection got work done; a fresh fault budget
		} else {
			stalled++
		}
		if stalled > maxResumes {
			return Stats{}, fmt.Errorf("cluster: site %d out of resume attempts: %w", s.id, err)
		}
		time.Sleep(s.retry().backoff(stalled, jrng))
	}
}

// runConn drives one connection: handshake (hello on the first connection,
// resume afterwards), the stream loop, and the wait for closing stats. A
// terminal return ends Run (success, a protocol violation, or the chaos
// crash hook); a non-terminal one means the connection died and the site
// should reconnect and resume.
func (s *Site) runConn(raw net.Conn, pst **siteRun) (Stats, bool, error) {
	c := newConn(raw)
	st := *pst
	resuming := st != nil
	if !resuming {
		// First connection: introduce ourselves, receive the run config.
		cfg, terminal, err := hello(c, frameHello, s.id)
		if err != nil {
			return Stats{}, terminal, fmt.Errorf("cluster: site %d: %w", s.id, err)
		}
		if st, err = newSiteRun(s.id, cfg); err != nil {
			return Stats{}, true, err
		}
		*pst = st
	}
	if resuming {
		// Reconnect: resume with our stream position, then replay the
		// decided counts so the coordinator's row catches up to our state
		// regardless of what the dead connection actually delivered (or what
		// a restored-from-checkpoint coordinator remembers).
		if err := c.send(frameResume, encodeResume(resumeReq{Site: s.id, Events: st.next})); err != nil {
			return Stats{}, false, err
		}
		t, payload, err := c.readFrame()
		if err != nil {
			return Stats{}, false, fmt.Errorf("cluster: site %d waiting for resume ack: %w", s.id, err)
		}
		if t != frameResumeAck {
			return Stats{}, true, fmt.Errorf("cluster: site %d got frame %d, want resume ack", s.id, t)
		}
		ack, err := decodeResumeAck(payload)
		if err != nil {
			return Stats{}, true, err
		}
		if ack.Flags&resumeRunComplete != 0 {
			// The run finished while we were away; the closing stats follow
			// on this connection.
			stats, err := awaitStats(c, s.id)
			return stats, err == nil, err
		}
		if ack.Flags&resumeSiteDone != 0 {
			st.doneSent = true
		}
		if !st.doneSent {
			if err := st.replay(c); err != nil {
				return Stats{}, false, err
			}
		}
	}

	if !st.doneSent {
		if st.next < st.cfg.Events {
			if err := st.stream(c, s.CrashAfterEvents); err != nil {
				return Stats{}, errors.Is(err, ErrSiteCrashed), err
			}
		}
		// The Done marker carries the site's full event count; the
		// coordinator deduplicates, so re-sending after a resume is safe.
		if err := c.send(frameDone, encodeDone(s.id, int64(st.cfg.Events))); err != nil {
			return Stats{}, false, err
		}
	}
	stats, err := awaitStats(c, s.id)
	if err != nil {
		return Stats{}, false, err // stats lost in transit: resume and re-ask
	}
	return stats, true, nil
}
