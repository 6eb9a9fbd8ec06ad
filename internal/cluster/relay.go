package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// ErrRelayClosed is returned by Relay.Run when Close is called.
var ErrRelayClosed = errors.New("cluster: relay closed")

// RelayConfig parameterizes one aggregation-tree relay.
type RelayConfig struct {
	// ID identifies the relay in diagnostics (it lives in its own namespace,
	// never colliding with site ids).
	ID uint32
	// Parent is the upstream address: the coordinator, or another relay for
	// deeper trees.
	Parent string
	// FlushInterval bounds how long folded state may wait before it ships
	// upstream — the staleness a site's report gains per tier, of the same
	// kind as the batching-window delay the (ε, δ) envelope already absorbs.
	// The relay flushes earlier whenever every active downstream child has
	// delivered a frame since the last flush (one full round), so under
	// steady streaming the upstream frame rate is the downstream rate
	// divided by the branching factor, and the interval only pays for
	// stragglers. 0 selects the default (2ms).
	FlushInterval time.Duration
	// DialAttempts bounds consecutive failed upstream dials; 0 selects the
	// default (8).
	DialAttempts int
	// RetryBase and RetryCap shape the upstream redial backoff, as on Site.
	// Zero selects the defaults (20ms, 1s).
	RetryBase, RetryCap time.Duration
}

// relaySiteState is the relay's folded view of one downstream site. The fold
// is the coordinator's idempotent max-merge over the site's monotone counts,
// applied mid-tier: the folded vector always equals the site's latest
// decided report per counter, so fold-then-forward cannot change any final
// estimate. Per-site vectors are never mixed across sites — the coordinator's
// trailing-gap adjustment is nonlinear per site, so summing children would
// change estimates; coalescing happens at the frame level (many sites, one
// grouped frame), not the counter level.
type relaySiteState struct {
	// known marks a site id the relay has seen traffic for.
	known bool
	// counts is the folded latest reported local count per counter; structs
	// the folded cumulative pair cells of the structure-learning overlay
	// (never sized when it is off), stamped with the site's stream position
	// structEvents.
	counts, structs dirtyVec
	structEvents    uint64
	// down is the current downstream connection carrying this site (nil
	// while disconnected). Many sites may share one child-relay connection.
	down *peer
	// pending is the site's last join (hello/resume) still awaiting the
	// parent's ctl reply; re-forwarded if the upstream connection is
	// replaced first, so a join can never be lost in a reconnect window.
	pendingKind  byte
	pendingInner []byte
	hasPending   bool
	// done/doneEvents record a forwarded Done marker, re-forwarded on every
	// upstream reconnect (the coordinator deduplicates).
	done       bool
	doneEvents int64
}

// Relay is a mid-tier node of the aggregation tree (the sensor-network
// collaborative-training architecture): downstream it speaks the
// coordinator's side of the site protocol — sites (and deeper relays) dial
// it exactly as they would the coordinator, handshake unchanged — and
// upstream it is a single connection to its parent carrying the whole
// subtree's traffic.
//
// Every downstream connection — site or child relay — is served by the tier
// the coordinator runs too (tier.serve), with the relay as its node: data
// frames fold into per-site dirtyVecs and ship upstream coalesced, one
// grouped frameRelayUpdates frame per flush round carrying every dirty site,
// so the parent's frame rate divides by the relay's branching factor while
// every final estimate stays bit-identical (monotone counts, idempotent
// max-merge — the same invariants that make resume replays exact); membership
// events are recorded and forwarded up as wrapped joins, and the parent's
// replies route back down through deliver.
//
// The relay is disposable: it holds no state a site cannot regenerate. A
// severed upstream link reconnects and replays the full folded vectors plus
// the membership markers (joins still pending, reattaches, Done markers); a
// killed and restarted relay comes back empty and is repopulated by its
// sites' own resume replays. Both paths land in the coordinator's max-merge,
// so chaos on a relay link costs retransmitted frames, never accuracy.
type Relay struct {
	cfg RelayConfig
	ln  net.Listener

	// down is the connection tier: every accepted downstream connection is
	// served by down.serve, with this relay as its node. Its wait group also
	// joins the accept and flush loops, so Close returns with every goroutine
	// the relay started gone. Set up by Run's first upstream handshake and
	// immutable after.
	down tier

	// mu guards sites and active.
	mu    sync.Mutex
	sites []relaySiteState
	// active counts attached, not-done downstream sites — the flush round
	// size.
	active int

	// upMu serializes upstream writers — a flush holds it from draining the
	// dirty sets to writing them, so what is drained first is on the wire
	// first; up is nil between a connection loss and the reconnect. Lock
	// order: upMu before mu.
	upMu  sync.Mutex
	up    *conn
	upRaw net.Conn
	upBuf []byte

	// framesSinceFlush counts downstream data frames folded since the last
	// upstream flush; a flush round is ready once it reaches active.
	framesSinceFlush atomic.Int64
	flushReq         chan struct{}

	// DownFrames / UpFrames count data frames folded from below and shipped
	// above — the branching-factor reduction, surfaced for tests and the
	// aggregation-tree benchmark.
	DownFrames atomic.Int64
	UpFrames   atomic.Int64

	closed    atomic.Bool
	closeOnce sync.Once
	done      chan struct{}
}

// NewRelay validates cfg and starts listening on addr (use "127.0.0.1:0" in
// tests). Call Addr for the bound address — sites dial it exactly as they
// would the coordinator — and Run to connect upstream and serve.
func NewRelay(cfg RelayConfig, addr string) (*Relay, error) {
	if cfg.Parent == "" {
		return nil, fmt.Errorf("cluster: relay needs a parent address")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Relay{
		cfg:      cfg,
		ln:       ln,
		flushReq: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}, nil
}

// Addr returns the listening address.
func (r *Relay) Addr() string { return r.ln.Addr().String() }

// Close stops the relay: the listener, the upstream connection and every
// downstream connection — attached or still handshaking — are closed, and
// the accept loop, the flusher and every downstream reader have exited when
// it returns (Run, on its caller's goroutine, returns promptly after). Safe
// to call at any time and more than once. Sites that were routed through the
// relay reconnect elsewhere (or to a restarted relay on the same address)
// and resume.
func (r *Relay) Close() error {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
		close(r.done)
		r.ln.Close()
		r.upMu.Lock()
		if r.upRaw != nil {
			r.upRaw.Close()
		}
		r.upMu.Unlock()
		r.down.conns.closeAll()
	})
	r.down.conns.wg.Wait()
	return nil
}

func (r *Relay) flushInterval() time.Duration {
	if r.cfg.FlushInterval > 0 {
		return r.cfg.FlushInterval
	}
	return 2 * time.Millisecond
}

// Run connects upstream, learns the run's base configuration, and serves the
// subtree until Close. The upstream connection is supervised: a severed link
// redials with backoff and replays the relay's full folded state (safe —
// max-merge absorbs the replay), so a transient parent outage is invisible
// to the subtree.
func (r *Relay) Run() error {
	jrng := bn.NewRNG(0x9e1a7bad ^ (uint64(r.cfg.ID) * 0x9e3779b97f4a7c15))
	if err := r.connectUp(jrng, true); err != nil {
		return err
	}
	r.down.conns.wg.Add(2)
	go func() {
		defer r.down.conns.wg.Done()
		_ = r.down.conns.acceptLoop(r.ln, r.down.serve) // ends when Close closes the listener
	}()
	go func() {
		defer r.down.conns.wg.Done()
		r.flushLoop()
	}()
	return r.upReadLoop(jrng)
}

// connectUp dials the parent, introduces the relay, and decodes the base run
// configuration. On the first connection it derives the fold layout; later
// reconnects verify the run still matches and replay the subtree's state
// before any other writer sees the new connection.
func (r *Relay) connectUp(jrng *bn.RNG, first bool) error {
	retry := retryPolicy{attempts: r.cfg.DialAttempts, base: r.cfg.RetryBase, cap: r.cfg.RetryCap}
	err := retry.try(jrng, r.done, func() (terminal bool, err error) {
		if r.closed.Load() {
			return true, ErrRelayClosed
		}
		raw, err := net.Dial("tcp", r.cfg.Parent)
		if err != nil {
			return false, err
		}
		// Publish raw before the handshake, so a Close that runs while the
		// parent has not answered yet closes it and unblocks helloUp.
		r.upMu.Lock()
		if r.upRaw != nil {
			r.upRaw.Close()
		}
		r.upRaw = raw
		r.upMu.Unlock()
		if r.closed.Load() {
			raw.Close()
			return true, ErrRelayClosed
		}
		c := newConn(raw)
		if terminal, err = r.helloUp(c, first); err != nil {
			raw.Close()
			return terminal, err
		}
		r.upMu.Lock()
		r.up = c
		if !first {
			r.replayUp()
		}
		r.upMu.Unlock()
		if r.closed.Load() {
			raw.Close()
			return true, ErrRelayClosed
		}
		return false, nil
	})
	if err != nil && !errors.Is(err, ErrRelayClosed) {
		return fmt.Errorf("cluster: relay %d connecting to parent: %w", r.cfg.ID, err)
	}
	return err
}

// helloUp introduces the relay on a fresh upstream connection and checks the
// base configuration the parent answers with. terminal marks a failure a
// redial cannot cure.
func (r *Relay) helloUp(c *conn, first bool) (terminal bool, err error) {
	base, terminal, err := hello(c, frameRelayHello, r.cfg.ID)
	if err != nil {
		return terminal, err
	}
	if first {
		if err := r.initFromBase(base); err != nil {
			return true, err
		}
	} else if was := r.down.base; base.NetName != was.NetName || base.Sites != was.Sites {
		return true, fmt.Errorf("reconnected to a different run (%s/%d sites, was %s/%d)",
			base.NetName, base.Sites, was.NetName, was.Sites)
	}
	// Ctl frames wrap small control payloads only; the grouped data frames
	// travel up, never down.
	c.setReadLimit(maxControlFrame + 16)
	return false, nil
}

// initFromBase derives the fold layout from the base run configuration —
// the same deterministic regeneration a site performs.
func (r *Relay) initFromBase(base StartConfig) error {
	netw, err := netgen.ByName(base.NetName)
	if err != nil {
		return err
	}
	layout, err := newCounterLayout(netw, core.Strategy(base.Strategy), base.Eps)
	if err != nil {
		return err
	}
	var cells uint32
	if base.StructBatchEvents > 0 {
		sl, err := NewStructLayout(netw)
		if err != nil {
			return err
		}
		cells = sl.Cells()
	}
	r.down.init(r, fmt.Sprintf("relay %d: ", r.cfg.ID), base, layout.NumCounters(), cells)
	r.sites = make([]relaySiteState, base.Sites)
	return nil
}

// upReadLoop owns the upstream read side: it routes ctl frames down to the
// named site and reconnects (connectUp replays) when the link dies.
func (r *Relay) upReadLoop(jrng *bn.RNG) error {
	for {
		r.upMu.Lock()
		c := r.up
		r.upMu.Unlock()
		if c == nil {
			return ErrRelayClosed
		}
		t, payload, err := c.readFrame()
		if err != nil {
			if r.closed.Load() {
				return nil
			}
			if err := r.connectUp(jrng, false); err != nil {
				if r.closed.Load() {
					return nil
				}
				return err
			}
			continue
		}
		switch t {
		case frameRelayCtl:
			site, innerType, inner, err := decodeRelayWrapped(payload)
			if err != nil || site >= uint32(len(r.sites)) {
				continue // garbage ctl: drop; the peer validates its own state
			}
			r.deliver(site, innerType, inner)
		default:
			// Unknown downstream control traffic: ignore (append-only
			// protocol discipline — a newer parent may know more frames).
		}
	}
}

// deliver routes one unwrapped control frame to the site's downstream
// connection, re-wrapping it when the next hop is a child relay.
func (r *Relay) deliver(site uint32, innerType byte, inner []byte) {
	r.mu.Lock()
	s := &r.sites[site]
	if innerType == frameStart || innerType == frameResumeAck {
		s.hasPending = false
		s.pendingInner = nil
	}
	d := s.down
	r.mu.Unlock()
	if d != nil {
		_ = d.writeCtl(site, innerType, inner) // a dead downstream link detaches itself
	}
}

// forwardJoin ships one wrapped join upstream.
func (r *Relay) forwardJoin(site uint32, kind byte, inner []byte) {
	r.upMu.Lock()
	r.sendJoin(site, kind, inner)
	r.upMu.Unlock()
}

// sendJoin writes one wrapped join on the upstream connection; the caller
// holds upMu. Write errors are dropped: the upstream reader notices the dead
// link and the reconnect replay re-forwards every join that still matters
// (pending ones, reattaches, Done markers).
func (r *Relay) sendJoin(site uint32, kind byte, inner []byte) {
	if r.up != nil {
		_ = r.up.send(frameRelayJoin, encodeRelayWrapped(site, kind, inner))
	}
}

// replayUp re-establishes the subtree's state on a fresh upstream
// connection, in the order the coordinator relies on: membership first
// (pending joins re-forwarded verbatim, already-admitted sites reattached),
// then the full folded vectors, then the Done markers — so a Done can never
// overtake the final counts it summarizes. The caller holds upMu, and has
// since it installed the connection, so no other goroutine's flush or join
// lands in between.
func (r *Relay) replayUp() {
	type j struct {
		site  uint32
		kind  byte
		inner []byte
	}
	var joins, dones []j
	r.mu.Lock()
	for i := range r.sites {
		s := &r.sites[i]
		if !s.known {
			continue
		}
		switch {
		case s.hasPending:
			joins = append(joins, j{uint32(i), s.pendingKind, s.pendingInner})
		case s.down != nil || s.done:
			joins = append(joins, j{uint32(i), relayJoinReattach, nil})
		}
		s.counts.markAll()
		s.structs.markAll()
		if s.done {
			dones = append(dones, j{uint32(i), relayJoinDone, encodeDone(uint32(i), s.doneEvents)})
		}
	}
	r.mu.Unlock()
	for _, x := range joins {
		r.sendJoin(x.site, x.kind, x.inner)
	}
	r.flush()
	for _, x := range dones {
		r.sendJoin(x.site, x.kind, x.inner)
	}
}

// noteFrame and badOpening are the root's business (tierNode): a relay keeps
// no frame clock, and a connection that opens with garbage is just dropped.
func (r *Relay) noteFrame()       {}
func (r *Relay) badOpening(error) {}

// member records one membership event of a site below — from its own
// connection, or forwarded by the child relay carrying it — and passes it up
// (tierNode); the parent's reply to a join routes back through deliver.
func (r *Relay) member(p *peer, site uint32, kind byte, inner []byte) error {
	switch kind {
	case relayJoinHello, relayJoinResume, relayJoinReattach:
		r.mu.Lock()
		s := &r.sites[site]
		s.known = true
		if s.down != nil && s.down != p && !s.down.isRelay {
			s.down.raw.Close() // superseded; latest wins, as at the coordinator
		}
		if s.down == nil && !s.done {
			r.active++
		}
		s.down = p
		// The join stays pending until the parent's reply passes through
		// deliver; a reattach expects none.
		s.hasPending = kind != relayJoinReattach
		s.pendingKind, s.pendingInner = kind, inner
		r.mu.Unlock()
		r.forwardJoin(site, kind, inner)
	case relayJoinDone:
		_, events, err := decodeDone(inner)
		if err != nil {
			return err
		}
		r.siteDone(site, events, inner)
	case relayJoinDetach:
		// p died, or reported the site gone: if it still carried the site,
		// forward the detach so the coordinator arms the site's grace timer.
		r.mu.Lock()
		s := &r.sites[site]
		lost := s.down == p && !s.done
		if s.down == p {
			s.down = nil
		}
		if lost {
			r.active--
		}
		r.mu.Unlock()
		if lost && !r.closed.Load() {
			r.forwardJoin(site, relayJoinDetach, nil)
		}
	}
	return nil
}

// siteDone records a site's Done, flushes the folded state so the final
// counts precede the marker on the upstream connection (frames on one
// connection are processed in order), then forwards the Done join.
func (r *Relay) siteDone(site uint32, events int64, donePayload []byte) {
	r.mu.Lock()
	s := &r.sites[site]
	s.known = true
	if !s.done {
		s.done = true
		s.doneEvents = events
		if s.down != nil {
			r.active--
		}
	}
	r.mu.Unlock()
	r.flushUp()
	r.forwardJoin(site, relayJoinDone, donePayload)
}

// foldCounts max-merges one site's decoded report batch into its folded
// vector and signals the flusher (tierNode).
func (r *Relay) foldCounts(site uint32, ups []Update) {
	r.mu.Lock()
	s := &r.sites[site]
	s.known = true
	s.counts.merge(r.down.folder.counters, ups)
	r.mu.Unlock()
	r.noteDownFrame()
}

// foldStruct max-merges one site's struct-stats batch into its cumulative
// cell vector (tierNode). A stamp that moved ships even with no cell
// changed: the coordinator's window clock runs on it.
func (r *Relay) foldStruct(site uint32, siteEvents uint64, ups []Update) {
	r.mu.Lock()
	s := &r.sites[site]
	s.known = true
	if siteEvents > s.structEvents {
		s.structEvents = siteEvents
		s.structs.any = true
	}
	s.structs.merge(r.down.folder.cells, ups)
	r.mu.Unlock()
	r.noteDownFrame()
}

func (r *Relay) noteDownFrame() {
	r.DownFrames.Add(1)
	r.framesSinceFlush.Add(1)
	select {
	case r.flushReq <- struct{}{}:
	default:
	}
}

// flushLoop ships folded state upstream: immediately once a full round of
// active children has reported since the last flush, or after FlushInterval
// for stragglers — so steady streaming coalesces at the branching factor and
// a quiet tail still drains promptly.
func (r *Relay) flushLoop() {
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	for {
		select {
		case <-r.done:
			return
		case <-r.flushReq:
			r.mu.Lock()
			ready := r.active > 0 && r.framesSinceFlush.Load() >= int64(r.active)
			r.mu.Unlock()
			if ready {
				r.flushUp()
				if armed {
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
					armed = false
				}
			} else if !armed {
				timer.Reset(r.flushInterval())
				armed = true
			}
		case <-timer.C:
			armed = false
			r.flushUp()
		}
	}
}

// flushUp ships the folded state upstream. upMu is held from the drain to
// the write: a racing flush that finds a site's cells already drained returns
// only after they are on the wire, so the Done that follows it (siteDone)
// cannot overtake them.
func (r *Relay) flushUp() {
	r.upMu.Lock()
	r.flush()
	r.upMu.Unlock()
}

// flush ships every dirty per-site folded vector upstream as one grouped
// frame (plus one grouped struct frame when the overlay is on); the caller
// holds upMu. Dirty flags clear optimistically before the write: if the write
// fails the upstream link is dead, and the reconnect replay re-marks every
// nonzero count dirty — nothing is lost, at the cost of re-shipping (free
// under max-merge).
func (r *Relay) flush() {
	r.framesSinceFlush.Store(0)
	var groups, sgroups []relayGroup
	var ups []Update
	r.mu.Lock()
	for i := range r.sites {
		s := &r.sites[i]
		if s.counts.any {
			if ups = s.counts.drain(ups[:0]); len(ups) > 0 {
				groups = append(groups, relayGroup{Site: uint32(i), Payload: encodeUpdates2(nil, ups)})
			}
		}
		if s.structs.any {
			ups = s.structs.drain(ups[:0])
			sgroups = append(sgroups, relayGroup{Site: uint32(i), Payload: encodeStructUpdates(s.structEvents, ups)})
		}
	}
	r.mu.Unlock()
	if len(groups)+len(sgroups) == 0 {
		return
	}
	if r.up == nil {
		return // reconnecting; the replay will re-ship
	}
	for _, f := range [2]struct {
		t      byte
		groups []relayGroup
	}{{frameRelayUpdates, groups}, {frameRelayStruct, sgroups}} {
		if len(f.groups) == 0 {
			continue
		}
		r.upBuf = encodeRelayGroups(r.upBuf, f.groups)
		if r.up.writeFrame(f.t, r.upBuf) != nil {
			return // dead link: the upstream reader reconnects and replays
		}
		r.UpFrames.Add(1)
	}
	r.up.flush()
}
