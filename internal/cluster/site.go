package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
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
// connects to the coordinator, receives its StartConfig, generates its share
// of the training stream locally, and runs the site half of the counter
// protocol.
//
// The connection is supervised: a transient dial failure retries with
// exponential backoff and deterministic jitter, and a connection lost
// mid-run reconnects with a protocol-v3 resume handshake — the site keeps
// its stream position and counter state across reconnects, replays its
// latest decided per-counter local counts in one frameUpdates2 frame (safe:
// counts are monotone and the coordinator's fold is max-merge, so the
// replay is idempotent), and continues the stream where it stopped.
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

// siteRun is the state a site keeps across reconnects: the decoded run
// configuration, the regenerated model and layout, the approximate-counter
// state, the stream position, and — the crux of crash safety — lastReported,
// the latest *decided* report per counter. Replaying lastReported on resume
// restores the coordinator's row for this site to exactly the value an
// uninterrupted run would have reached, because the final matrix cell only
// ever holds the latest decided report (monotone counts, max-merge fold).
type siteRun struct {
	cfg      StartConfig
	netw     *bn.Network
	layout   *Layout
	counts   *siteCounters
	rng      *bn.RNG
	training *stream.Training
	// lastReported[id] is the latest local count this site decided to
	// report for counter id (0 = never reported).
	lastReported []int64
	// next is the index of the next stream event to process.
	next uint64
	// doneSent records that the coordinator accepted this site's Done
	// marker (learned from a resume ack's resumeSiteDone flag).
	doneSent bool
	// batch is the pending protocol-v2 coalescing window (nil in v1 mode).
	batch map[uint32]int64
	// pairs holds the structure-learning overlay's cumulative pairwise
	// co-occurrence counts (protocol v4; nil with learning off). Counts are
	// monotone and shipped whole, so a replayed frame max-merges to a no-op
	// on the coordinator.
	pairs *pairAccumulator
	// drift is the post-drift generating stream (nil without drift); events
	// at positions ≥ cfg.DriftAtEvent are drawn from it instead of training.
	drift *stream.Training
	// scratch buffers reused across frames.
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
	layout, err := NewLayout(netw, core.Strategy(cfg.Strategy), cfg.Eps)
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
		training:     stream.NewSiteTraining(model, int(id), cfg.StreamSeed),
		lastReported: make([]int64, layout.NumCounters()),
		ups:          make([]Update, 0, 2*netw.Len()),
		buf:          make([]byte, 0, 24*netw.Len()),
	}
	if cfg.BatchEvents > 0 {
		st.batch = make(map[uint32]int64, 2*netw.Len())
	}
	if cfg.StructBatchEvents > 0 {
		sl, err := NewStructLayout(netw)
		if err != nil {
			return nil, err
		}
		st.pairs = newPairAccumulator(sl)
	}
	if cfg.DriftNetName != "" {
		driftNet, err := netgen.ByName(cfg.DriftNetName)
		if err != nil {
			return nil, err
		}
		if err := sameVariables(netw, driftNet); err != nil {
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
	}
	return st, nil
}

// nextEvent draws the site's next stream event: from the base generating
// model before the drift point, from the drift model at and after it. Both
// sub-streams advance only when consumed, and the switch is a pure function
// of the absolute position st.next, so a restart's replay from event zero
// regenerates the identical stream.
func (st *siteRun) nextEvent() []int {
	if st.drift != nil && st.next >= st.cfg.DriftAtEvent {
		_, x := st.drift.Next()
		return x
	}
	_, x := st.training.Next()
	return x
}

func (s *Site) maxResumes() int {
	if s.MaxResumes > 0 {
		return s.MaxResumes
	}
	return 32
}

func (s *Site) dialAttempts() int {
	if s.DialAttempts > 0 {
		return s.DialAttempts
	}
	return 8
}

// backoff returns the wait before retry attempt n (0-based): exponential
// with deterministic jitter from jrng, capped.
func (s *Site) backoff(n int, jrng *bn.RNG) time.Duration {
	base, cap := s.RetryBase, s.RetryCap
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
	// Up to 50% jitter, drawn from a seeded generator so two sites that fail
	// together do not thunder back together — and so tests stay reproducible.
	return d + time.Duration(jrng.Float64()*0.5*float64(d))
}

// dialRetry dials the coordinator with bounded exponential backoff; a
// coordinator that is briefly down (restarting from a checkpoint, say) just
// costs a few retries instead of failing the site.
func (s *Site) dialRetry(jrng *bn.RNG) (net.Conn, error) {
	var lastErr error
	for n := 0; n < s.dialAttempts(); n++ {
		if n > 0 {
			time.Sleep(s.backoff(n-1, jrng))
		}
		raw, err := net.Dial("tcp", s.addr)
		if err == nil {
			return raw, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: site %d dial: %w", s.id, lastErr)
}

// Run connects, processes the configured stream, and returns the
// coordinator's closing Stats. Run supervises its connection: dial failures
// retry with backoff, and a connection lost mid-run resumes (see the Site
// doc comment) until MaxResumes is exhausted.
func (s *Site) Run() (Stats, error) {
	jrng := bn.NewRNG(0xc1a05c0de ^ (uint64(s.id) * 0x9e3779b97f4a7c15))
	var st *siteRun
	stalled := 0 // consecutive resumes without stream progress
	for {
		raw, err := s.dialRetry(jrng)
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
		if stalled > s.maxResumes() {
			return Stats{}, fmt.Errorf("cluster: site %d out of resume attempts: %w", s.id, err)
		}
		time.Sleep(s.backoff(stalled, jrng))
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

	if st == nil {
		// First connection: introduce ourselves, receive the run config.
		if err := c.writeFrame(frameHello, encodeHello(s.id)); err != nil {
			return Stats{}, false, err
		}
		if err := c.flush(); err != nil {
			return Stats{}, false, err
		}
		t, payload, err := c.readFrame()
		if err != nil {
			return Stats{}, false, fmt.Errorf("cluster: site %d waiting for start: %w", s.id, err)
		}
		if t != frameStart {
			return Stats{}, true, fmt.Errorf("cluster: site %d got frame %d, want start", s.id, t)
		}
		cfg, err := decodeStart(payload)
		if err != nil {
			return Stats{}, true, err
		}
		if st, err = newSiteRun(s.id, cfg); err != nil {
			return Stats{}, true, err
		}
		*pst = st
	} else {
		// Reconnect: resume with our stream position, then replay the
		// decided counts so the coordinator's row catches up to our state
		// regardless of what the dead connection actually delivered (or what
		// a restored-from-checkpoint coordinator remembers).
		if err := c.writeFrame(frameResume, encodeResume(resumeReq{Site: s.id, Events: st.next})); err != nil {
			return Stats{}, false, err
		}
		if err := c.flush(); err != nil {
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
			stats, err := s.awaitStats(c)
			return stats, err == nil, err
		}
		if ack.Flags&resumeSiteDone != 0 {
			st.doneSent = true
		}
		if !st.doneSent {
			if err := s.replay(c, st); err != nil {
				return Stats{}, false, err
			}
		}
	}

	if !st.doneSent && st.next < st.cfg.Events {
		var err error
		if st.cfg.BatchEvents > 0 {
			err = s.processBatched(c, st)
		} else {
			err = s.process(c, st)
		}
		if err != nil {
			terminal := errors.Is(err, ErrSiteCrashed)
			return Stats{}, terminal, err
		}
	}
	if !st.doneSent {
		// The Done marker carries the site's full event count; the
		// coordinator deduplicates, so re-sending after a resume is safe.
		if err := c.writeFrame(frameDone, encodeDone(s.id, int64(st.cfg.Events))); err != nil {
			return Stats{}, false, err
		}
		if err := c.flush(); err != nil {
			return Stats{}, false, err
		}
	}
	stats, err := s.awaitStats(c)
	if err != nil {
		return Stats{}, false, err // stats lost in transit: resume and re-ask
	}
	return stats, true, nil
}

// replay ships the site's latest decided report for every counter it ever
// reported, as one coalesced frameUpdates2 frame. Idempotent by
// construction: every replayed count is ≤ the count an uninterrupted run
// would have delivered by now, and the coordinator keeps the max.
func (s *Site) replay(c *conn, st *siteRun) error {
	st.ups = st.ups[:0]
	for id, n := range st.lastReported {
		if n != 0 {
			st.ups = append(st.ups, Update{Counter: uint32(id), LocalCount: n})
		}
	}
	if st.batch != nil {
		// The pending window is subsumed by lastReported (both record the
		// latest decision); drop it so it is not re-flushed at the next
		// window boundary.
		clear(st.batch)
	}
	if len(st.ups) > 0 {
		st.buf = encodeUpdates2(st.buf, st.ups)
		if err := c.writeFrame(frameUpdates2, st.buf); err != nil {
			return err
		}
	}
	// Re-ship the cumulative structure statistics too: a coordinator
	// restored from a checkpoint restarts with an empty MI window, and the
	// replayed cumulative counts (max-merged, so a no-op when nothing was
	// lost) put the per-site statistics back.
	if err := s.shipStructStats(c, st); err != nil {
		return err
	}
	return c.flush()
}

// shipStructStats sends the site's full cumulative pairwise co-occurrence
// vector and stream position as one frameStructStats frame (a no-op with
// structure learning off or before the first event). Cumulative counts make
// the frame self-contained: the coordinator max-merges it, so duplicates
// and replays are absorbed.
func (s *Site) shipStructStats(c *conn, st *siteRun) error {
	if st.pairs == nil || st.next == 0 {
		return nil
	}
	st.buf = encodeStructStats(st.buf, st.next, st.pairs.cumulative())
	if err := c.writeFrame(frameStructStats, st.buf); err != nil {
		return err
	}
	return c.flush()
}

// awaitStats reads frames until the coordinator's closing stats arrive.
func (s *Site) awaitStats(c *conn) (Stats, error) {
	for {
		t, payload, err := c.readFrame()
		if err != nil {
			return Stats{}, fmt.Errorf("cluster: site %d waiting for stats: %w", s.id, err)
		}
		if t == frameStats {
			return decodeStats(payload)
		}
	}
}

// crashed reports whether the chaos hook fires at stream position next.
func (s *Site) crashed(next uint64) bool {
	return s.CrashAfterEvents > 0 && next >= s.CrashAfterEvents
}

// process is the protocol-version-1 stream loop: one frameUpdates frame per
// event that triggered a report, resuming from st.next.
func (s *Site) process(c *conn, st *siteRun) error {
	cfg, netw, layout := st.cfg, st.netw, st.layout
	latency := time.Duration(cfg.LatencyMicros) * time.Microsecond
	// Without artificial latency, frames ride the 64KB connection buffer;
	// flush on a fixed event cadence so the coordinator's continuous view
	// stays fresh even on low-rate counters.
	const flushEvery = 1024

	for st.next < cfg.Events {
		if s.crashed(st.next) {
			return ErrSiteCrashed
		}
		e := st.next
		x := st.nextEvent()
		if st.pairs != nil {
			st.pairs.add(x)
		}
		st.ups = st.ups[:0]
		for i := 0; i < netw.Len(); i++ {
			pidx := netw.ParentIndex(i, x)
			for _, id := range [2]uint32{layout.PairID(i, x[i], pidx), layout.ParID(i, pidx)} {
				if n, report := st.counts.inc(id, st.rng); report {
					st.lastReported[id] = n
					st.ups = append(st.ups, Update{Counter: id, LocalCount: n})
				}
			}
		}
		// The event is consumed the moment the sample is drawn and the
		// decisions recorded; advance before any fallible write so a broken
		// connection can never replay a consumed sample (the decisions it
		// carried are in lastReported and covered by resume replay).
		st.next = e + 1
		if len(st.ups) > 0 {
			st.buf = encodeUpdates(st.buf, st.ups)
			if err := c.writeFrame(frameUpdates, st.buf); err != nil {
				return err
			}
			if latency > 0 {
				if err := c.flush(); err != nil {
					return err
				}
				time.Sleep(latency)
			}
		}
		if st.pairs != nil && (e+1)%uint64(cfg.StructBatchEvents) == 0 {
			if err := s.shipStructStats(c, st); err != nil {
				return err
			}
		}
		// Cadence check runs even for update-less events (the paper's no
		// update, no message optimization), so a frame buffered during a
		// long quiet stretch still reaches the coordinator promptly.
		if latency == 0 && (e+1)%flushEvery == 0 {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
	// A final ship covers the tail shorter than one struct batch window.
	if err := s.shipStructStats(c, st); err != nil {
		return err
	}
	return c.flush()
}

// processBatched is the protocol-version-2 stream loop: report decisions are
// made per increment exactly as in the per-event path (same counters, same
// RNG draw order), but instead of shipping a frame per triggering event the
// decided reports coalesce into a sparse delta batch — a map from counter id
// to its latest decided local count; counts are monotone, so the latest
// subsumes the window's earlier decisions — that is flushed as one
// varint-compressed frameUpdates2 frame every cfg.BatchEvents events. A
// report is therefore delayed by at most one window, a staleness of the same
// kind as the trailing gap the report probability already models. Resumes
// from st.next; window boundaries are absolute stream positions, so a
// reconnect does not shift the frame schedule.
func (s *Site) processBatched(c *conn, st *siteRun) error {
	cfg, netw, layout := st.cfg, st.netw, st.layout
	window := uint64(cfg.BatchEvents)
	latency := time.Duration(cfg.LatencyMicros) * time.Microsecond

	flush := func() error {
		if len(st.batch) == 0 {
			return nil
		}
		st.ups = st.ups[:0]
		for id, n := range st.batch {
			st.ups = append(st.ups, Update{Counter: id, LocalCount: n})
		}
		clear(st.batch)
		slices.SortFunc(st.ups, func(a, b Update) int { return int(a.Counter) - int(b.Counter) })
		st.buf = encodeUpdates2(st.buf, st.ups)
		if err := c.writeFrame(frameUpdates2, st.buf); err != nil {
			return err
		}
		// A window frame is rare by construction: push it out immediately so
		// the coordinator's live view stays at most one window stale.
		if err := c.flush(); err != nil {
			return err
		}
		if latency > 0 {
			time.Sleep(latency)
		}
		return nil
	}

	for st.next < cfg.Events {
		if s.crashed(st.next) {
			return ErrSiteCrashed
		}
		e := st.next
		x := st.nextEvent()
		if st.pairs != nil {
			st.pairs.add(x)
		}
		for i := 0; i < netw.Len(); i++ {
			pidx := netw.ParentIndex(i, x)
			for _, id := range [2]uint32{layout.PairID(i, x[i], pidx), layout.ParID(i, pidx)} {
				if n, report := st.counts.inc(id, st.rng); report {
					st.lastReported[id] = n
					st.batch[id] = n
				}
			}
		}
		// Consumed: advance before the fallible flush (see process).
		st.next = e + 1
		if (e+1)%window == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		if st.pairs != nil && (e+1)%uint64(cfg.StructBatchEvents) == 0 {
			if err := s.shipStructStats(c, st); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	// A final ship covers the tail shorter than one struct batch window.
	return s.shipStructStats(c, st)
}
