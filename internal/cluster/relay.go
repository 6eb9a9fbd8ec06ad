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

// relayDown is one downstream connection: a site, or a child relay carrying
// many sites.
type relayDown struct {
	raw net.Conn
	c   *conn
	// isRelay marks a child-relay connection: control frames going down are
	// wrapped in frameRelayCtl instead of written raw.
	isRelay bool
	// wmu serializes writers (ctl deliveries race each other).
	wmu sync.Mutex
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
	// counts[id] is the folded latest reported local count (lazily sized to
	// the layout on first contact).
	counts []int64
	// dirty[id] marks counts mutated since the last upstream flush; dirtyAny
	// short-circuits clean sites.
	dirty    []bool
	dirtyAny bool
	// Structure-learning overlay fold (sized lazily; unused when off).
	structCounts []int64
	structDirty  []bool
	structAny    bool
	structEvents uint64
	// down is the current downstream connection carrying this site (nil
	// while disconnected). Many sites may share one child-relay connection.
	down *relayDown
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
// Per-site frameUpdates/frameUpdates2/frameStructStats frames fold locally
// into per-site cumulative vectors and ship upstream coalesced: one grouped
// frameRelayUpdates frame per flush round carries every dirty site, so the
// parent's frame rate divides by the relay's branching factor while every
// final estimate stays bit-identical (monotone counts, idempotent max-merge
// — the same invariants that make resume replays exact).
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

	// Immutable after Run's first upstream handshake.
	base        StartConfig
	layout      *Layout
	structCells uint32
	innerCap    uint32

	// mu guards sites and active.
	mu    sync.Mutex
	sites []relaySiteState
	// active counts attached, not-done downstream sites — the flush round
	// size.
	active int

	// upMu serializes upstream writers; up is nil between a connection loss
	// and the reconnect.
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
	// federation benchmark.
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
// downstream connection are closed. Safe to call at any time and more than
// once. Sites that were routed through the relay reconnect elsewhere (or to
// a restarted relay on the same address) and resume.
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
		r.mu.Lock()
		for i := range r.sites {
			if d := r.sites[i].down; d != nil {
				d.raw.Close()
			}
		}
		r.mu.Unlock()
	})
	return nil
}

func (r *Relay) flushInterval() time.Duration {
	if r.cfg.FlushInterval > 0 {
		return r.cfg.FlushInterval
	}
	return 2 * time.Millisecond
}

func (r *Relay) dialAttempts() int {
	if r.cfg.DialAttempts > 0 {
		return r.cfg.DialAttempts
	}
	return 8
}

func (r *Relay) backoff(n int, jrng *bn.RNG) time.Duration {
	base, cap := r.cfg.RetryBase, r.cfg.RetryCap
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
	return d + time.Duration(jrng.Float64()*0.5*float64(d))
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
	go r.acceptLoop()
	go r.flushLoop()
	return r.upReadLoop(jrng)
}

// connectUp dials the parent, introduces the relay, and decodes the base run
// configuration. On the first connection it derives the fold layout; later
// reconnects verify the run still matches.
func (r *Relay) connectUp(jrng *bn.RNG, first bool) error {
	var lastErr error
	for n := 0; n < r.dialAttempts(); n++ {
		if n > 0 {
			time.Sleep(r.backoff(n-1, jrng))
		}
		if r.closed.Load() {
			return ErrRelayClosed
		}
		raw, err := net.Dial("tcp", r.cfg.Parent)
		if err != nil {
			lastErr = err
			continue
		}
		c := newConn(raw)
		if err := c.writeFrame(frameRelayHello, encodeHello(r.cfg.ID)); err == nil {
			err = c.flush()
		} else {
			raw.Close()
			lastErr = err
			continue
		}
		t, payload, err := c.readFrame()
		if err != nil {
			raw.Close()
			lastErr = err
			continue
		}
		if t != frameStart {
			raw.Close()
			return fmt.Errorf("cluster: relay %d got frame %d, want start", r.cfg.ID, t)
		}
		base, err := decodeStart(payload)
		if err != nil {
			raw.Close()
			return err
		}
		if first {
			if err := r.initFromBase(base); err != nil {
				raw.Close()
				return err
			}
		} else if base.NetName != r.base.NetName || base.Sites != r.base.Sites {
			raw.Close()
			return fmt.Errorf("cluster: relay %d reconnected to a different run (%s/%d sites, was %s/%d)",
				r.cfg.ID, base.NetName, base.Sites, r.base.NetName, r.base.Sites)
		}
		// Ctl frames wrap small control payloads only; the grouped data
		// frames travel up, never down.
		c.setReadLimit(maxControlFrame + 16)
		r.upMu.Lock()
		if r.upRaw != nil {
			r.upRaw.Close()
		}
		r.upRaw, r.up = raw, c
		r.upMu.Unlock()
		if r.closed.Load() {
			raw.Close()
			return ErrRelayClosed
		}
		return nil
	}
	return fmt.Errorf("cluster: relay %d dial parent: %w", r.cfg.ID, lastErr)
}

// initFromBase derives the fold layout from the base run configuration —
// the same deterministic regeneration a site performs.
func (r *Relay) initFromBase(base StartConfig) error {
	netw, err := netgen.ByName(base.NetName)
	if err != nil {
		return err
	}
	layout, err := NewLayout(netw, core.Strategy(base.Strategy), base.Eps)
	if err != nil {
		return err
	}
	r.base = base
	r.layout = layout
	r.innerCap = updatesPayloadCap(layout.NumCounters())
	if base.StructBatchEvents > 0 {
		sl, err := NewStructLayout(netw)
		if err != nil {
			return err
		}
		r.structCells = sl.Cells()
		if sc := structPayloadCap(r.structCells); sc > r.innerCap {
			r.innerCap = sc
		}
	}
	r.sites = make([]relaySiteState, base.Sites)
	return nil
}

// upReadLoop owns the upstream read side: it routes ctl frames down to the
// named site and reconnects (with full replay) when the link dies.
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
			r.replayUp()
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
	if d == nil {
		return
	}
	d.wmu.Lock()
	var err error
	if d.isRelay {
		err = d.c.writeFrame(frameRelayCtl, encodeRelayWrapped(site, innerType, inner))
	} else {
		err = d.c.writeFrame(innerType, inner)
	}
	if err == nil {
		d.c.flush()
	}
	d.wmu.Unlock()
}

// forwardJoin ships one wrapped join upstream. Write errors are dropped: the
// upstream reader notices the dead link and the reconnect replay re-forwards
// every join that still matters (pending ones, reattaches, Done markers).
func (r *Relay) forwardJoin(site uint32, kind byte, inner []byte) {
	payload := encodeRelayWrapped(site, kind, inner)
	r.upMu.Lock()
	if r.up != nil {
		if err := r.up.writeFrame(frameRelayJoin, payload); err == nil {
			r.up.flush()
		}
	}
	r.upMu.Unlock()
}

// replayUp re-establishes the subtree's state on a fresh upstream
// connection, in the order the coordinator relies on: membership first
// (pending joins re-forwarded verbatim, already-admitted sites reattached),
// then the full folded vectors, then the Done markers — so a Done can never
// overtake the final counts it summarizes.
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
		// Full replay: every nonzero folded count is dirty again. Counts
		// are monotone and the fold is max-merge, so over-shipping is free.
		for id, n := range s.counts {
			if n != 0 {
				s.dirty[id] = true
				s.dirtyAny = true
			}
		}
		for id, n := range s.structCounts {
			if n != 0 {
				s.structDirty[id] = true
				s.structAny = true
			}
		}
		if s.done {
			dones = append(dones, j{uint32(i), relayJoinDone, encodeDone(uint32(i), s.doneEvents)})
		}
	}
	r.mu.Unlock()
	for _, x := range joins {
		r.forwardJoin(x.site, x.kind, x.inner)
	}
	r.flushUp()
	for _, x := range dones {
		r.forwardJoin(x.site, x.kind, x.inner)
	}
}

// acceptLoop admits downstream connections until the listener closes.
func (r *Relay) acceptLoop() {
	for {
		raw, err := r.ln.Accept()
		if err != nil {
			return
		}
		go r.handleDown(raw)
	}
}

// handleDown performs the downstream handshake: sites open with hello or
// resume (forwarded upstream as wrapped joins; the parent's reply routes
// back through deliver), child relays open with relayHello (answered
// locally from the cached base config).
func (r *Relay) handleDown(raw net.Conn) {
	c := newConn(raw)
	t, payload, err := c.readFrame()
	if err != nil {
		raw.Close()
		return
	}
	d := &relayDown{raw: raw, c: c}
	switch t {
	case frameHello, frameResume:
		var site uint32
		if t == frameHello {
			site, err = decodeHello(payload)
		} else {
			var req resumeReq
			req, err = decodeResume(payload)
			site = req.Site
		}
		if err != nil || site >= uint32(len(r.sites)) {
			raw.Close()
			return
		}
		kind := relayJoinHello
		var inner []byte
		if t == frameResume {
			kind = relayJoinResume
			inner = append([]byte(nil), payload...)
		}
		r.attachDown(site, d, kind, inner)
		c.setReadLimit(r.innerCap)
		r.forwardJoin(site, kind, inner)
		if err := r.siteLoop(d, site); err != nil {
			r.detachDown(site, d)
		}
		// A nil return is Done: the connection stays attached, idle, so the
		// closing stats can route down to the site.
	case frameRelayHello:
		// Child relay: it needs the base config we already hold.
		d.isRelay = true
		base := r.base
		base.Site, base.Events = 0, 0
		d.wmu.Lock()
		err := c.writeFrame(frameStart, encodeStart(base))
		if err == nil {
			err = c.flush()
		}
		d.wmu.Unlock()
		if err != nil {
			raw.Close()
			return
		}
		c.setReadLimit(relayPayloadCap(uint32(len(r.sites)), r.innerCap))
		r.childRelayLoop(d)
		// The child link died: every site it carried is detached and the
		// detach forwarded up.
		r.mu.Lock()
		var lostSites []uint32
		for i := range r.sites {
			if r.sites[i].down == d {
				r.sites[i].down = nil
				if !r.sites[i].done {
					lostSites = append(lostSites, uint32(i))
				}
				r.siteDetachedLocked(&r.sites[i])
			}
		}
		r.mu.Unlock()
		raw.Close()
		for _, site := range lostSites {
			r.forwardJoin(site, relayJoinDetach, nil)
		}
	default:
		raw.Close()
	}
}

// attachDown records a site's downstream connection and its pending join.
func (r *Relay) attachDown(site uint32, d *relayDown, kind byte, inner []byte) {
	r.mu.Lock()
	s := &r.sites[site]
	r.ensureSiteLocked(s)
	if s.down != nil && s.down != d && !s.down.isRelay {
		s.down.raw.Close() // superseded; latest wins, as at the coordinator
	}
	if s.down == nil && !s.done {
		r.active++
	}
	s.down = d
	s.hasPending = true
	s.pendingKind = kind
	s.pendingInner = inner
	r.mu.Unlock()
}

// ensureSiteLocked lazily sizes a site's fold vectors. Caller holds r.mu.
func (r *Relay) ensureSiteLocked(s *relaySiteState) {
	s.known = true
	if s.counts == nil {
		s.counts = make([]int64, r.layout.NumCounters())
		s.dirty = make([]bool, r.layout.NumCounters())
	}
	if r.structCells > 0 && s.structCounts == nil {
		s.structCounts = make([]int64, r.structCells)
		s.structDirty = make([]bool, r.structCells)
	}
}

// siteDetachedLocked updates the round accounting when a site's downstream
// connection is lost. Caller holds r.mu.
func (r *Relay) siteDetachedLocked(s *relaySiteState) {
	if !s.done {
		r.active--
	}
}

// detachDown clears a site's downstream connection (if d is still current)
// and forwards the detach so the coordinator arms the site's grace timer.
func (r *Relay) detachDown(site uint32, d *relayDown) {
	r.mu.Lock()
	s := &r.sites[site]
	if s.down != d {
		r.mu.Unlock()
		return
	}
	s.down = nil
	r.siteDetachedLocked(s)
	done := s.done
	r.mu.Unlock()
	d.raw.Close()
	if !done && !r.closed.Load() {
		r.forwardJoin(site, relayJoinDetach, nil)
	}
}

// siteLoop consumes one site connection's data frames, folding them locally.
// A nil return is the site's Done (flushed and forwarded, connection kept);
// an error detaches the connection.
func (r *Relay) siteLoop(d *relayDown, site uint32) error {
	var ups []Update
	for {
		t, payload, err := d.c.readFrame()
		if err != nil {
			return err
		}
		switch t {
		case frameUpdates:
			ups, err = decodeUpdates(ups, payload)
			if err != nil {
				return err
			}
			if err := r.fold(site, ups); err != nil {
				return err
			}
		case frameUpdates2:
			ups, err = decodeUpdates2(ups, payload, r.layout.NumCounters())
			if err != nil {
				return err
			}
			if err := r.fold(site, ups); err != nil {
				return err
			}
		case frameStructStats:
			if r.structCells == 0 {
				return fmt.Errorf("cluster: relay %d: site %d sent struct stats but structure learning is off", r.cfg.ID, site)
			}
			var siteEvents uint64
			siteEvents, ups, err = decodeStructStats(ups, payload, r.structCells)
			if err != nil {
				return err
			}
			r.foldStruct(site, siteEvents, ups)
		case frameDone:
			_, events, err := decodeDone(payload)
			if err != nil {
				return err
			}
			r.siteDone(site, events, payload)
			return nil
		default:
			return fmt.Errorf("cluster: relay %d: site %d unexpected frame %d", r.cfg.ID, site, t)
		}
	}
}

// childRelayLoop consumes a child relay's frames: wrapped joins (bookkept
// locally, forwarded up) and grouped data frames (unwrapped and folded per
// site — the fold composes across tiers because max-merge is associative).
func (r *Relay) childRelayLoop(d *relayDown) {
	var ups []Update
	var groups []relayGroup
	for {
		t, payload, err := d.c.readFrame()
		if err != nil {
			return
		}
		switch t {
		case frameRelayJoin:
			site, kind, inner, err := decodeRelayWrapped(payload)
			if err != nil || site >= uint32(len(r.sites)) {
				return
			}
			r.childJoin(d, site, kind, inner)
		case frameRelayUpdates:
			groups, err = decodeRelayGroups(groups, payload, uint32(len(r.sites)), r.innerCap)
			if err != nil {
				return
			}
			for _, g := range groups {
				ups, err = decodeUpdates2(ups, g.Payload, r.layout.NumCounters())
				if err != nil {
					return
				}
				if r.fold(g.Site, ups) != nil {
					return
				}
			}
		case frameRelayStruct:
			groups, err = decodeRelayGroups(groups, payload, uint32(len(r.sites)), r.innerCap)
			if err != nil || r.structCells == 0 {
				return
			}
			for _, g := range groups {
				var siteEvents uint64
				siteEvents, ups, err = decodeStructStats(ups, g.Payload, r.structCells)
				if err != nil {
					return
				}
				r.foldStruct(g.Site, siteEvents, ups)
			}
		default:
			return
		}
	}
}

// childJoin bookkeeps one join forwarded by a child relay and passes it up.
func (r *Relay) childJoin(d *relayDown, site uint32, kind byte, inner []byte) {
	switch kind {
	case relayJoinHello, relayJoinResume, relayJoinReattach:
		r.attachDown(site, d, kind, append([]byte(nil), inner...))
		if kind == relayJoinReattach {
			// Reattaches expect no reply; nothing is pending.
			r.mu.Lock()
			r.sites[site].hasPending = false
			r.sites[site].pendingInner = nil
			r.mu.Unlock()
		}
		r.forwardJoin(site, kind, inner)
	case relayJoinDone:
		if _, events, err := decodeDone(inner); err == nil {
			r.siteDone(site, events, inner)
		}
	case relayJoinDetach:
		r.mu.Lock()
		s := &r.sites[site]
		cur := s.down == d
		if cur {
			s.down = nil
			r.siteDetachedLocked(s)
		}
		r.mu.Unlock()
		if cur {
			r.forwardJoin(site, relayJoinDetach, nil)
		}
	}
}

// siteDone records a site's Done, flushes the folded state so the final
// counts precede the marker on the upstream connection (frames on one
// connection are processed in order), then forwards the Done join.
func (r *Relay) siteDone(site uint32, events int64, donePayload []byte) {
	r.mu.Lock()
	s := &r.sites[site]
	r.ensureSiteLocked(s)
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

// fold max-merges one decoded per-site update batch into the site's folded
// vector and signals the flusher.
func (r *Relay) fold(site uint32, ups []Update) error {
	total := r.layout.NumCounters()
	r.mu.Lock()
	s := &r.sites[site]
	r.ensureSiteLocked(s)
	for _, u := range ups {
		if u.Counter >= total {
			r.mu.Unlock()
			return fmt.Errorf("cluster: relay %d: site %d counter %d out of range", r.cfg.ID, site, u.Counter)
		}
		if u.LocalCount > s.counts[u.Counter] {
			s.counts[u.Counter] = u.LocalCount
			s.dirty[u.Counter] = true
			s.dirtyAny = true
		}
	}
	r.mu.Unlock()
	r.noteDownFrame()
	return nil
}

// foldStruct max-merges one struct-stats frame into the site's cumulative
// cell vector.
func (r *Relay) foldStruct(site uint32, siteEvents uint64, ups []Update) {
	r.mu.Lock()
	s := &r.sites[site]
	r.ensureSiteLocked(s)
	if siteEvents > s.structEvents {
		s.structEvents = siteEvents
		s.structAny = true
	}
	for _, u := range ups {
		if u.Counter < uint32(len(s.structCounts)) && u.LocalCount > s.structCounts[u.Counter] {
			s.structCounts[u.Counter] = u.LocalCount
			s.structDirty[u.Counter] = true
			s.structAny = true
		}
	}
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

// flushUp ships every dirty per-site folded vector upstream as one grouped
// frame (plus one grouped struct frame when the overlay is on). Dirty flags
// clear optimistically before the write: if the write fails the upstream
// link is dead, and the reconnect replay re-marks every nonzero count dirty
// — nothing is lost, at the cost of re-shipping (free under max-merge).
func (r *Relay) flushUp() {
	r.framesSinceFlush.Store(0)
	var groups, sgroups []relayGroup
	var ups []Update
	r.mu.Lock()
	for i := range r.sites {
		s := &r.sites[i]
		if s.dirtyAny {
			ups = ups[:0]
			for id, d := range s.dirty {
				if d {
					ups = append(ups, Update{Counter: uint32(id), LocalCount: s.counts[id]})
					s.dirty[id] = false
				}
			}
			s.dirtyAny = false
			if len(ups) > 0 {
				groups = append(groups, relayGroup{Site: uint32(i), Payload: encodeUpdates2(nil, ups)})
			}
		}
		if s.structAny {
			ups = ups[:0]
			for id, d := range s.structDirty {
				if d {
					ups = append(ups, Update{Counter: uint32(id), LocalCount: s.structCounts[id]})
					s.structDirty[id] = false
				}
			}
			s.structAny = false
			sgroups = append(sgroups, relayGroup{Site: uint32(i), Payload: encodeStructUpdates(s.structEvents, ups)})
		}
	}
	r.mu.Unlock()
	if len(groups) == 0 && len(sgroups) == 0 {
		return
	}
	r.upMu.Lock()
	defer r.upMu.Unlock()
	if r.up == nil {
		return // reconnecting; the replay will re-ship
	}
	ok := true
	if len(groups) > 0 {
		r.upBuf = encodeRelayGroups(r.upBuf, groups)
		if err := r.up.writeFrame(frameRelayUpdates, r.upBuf); err != nil {
			ok = false
		} else {
			r.UpFrames.Add(1)
		}
	}
	if ok && len(sgroups) > 0 {
		r.upBuf = encodeRelayGroups(r.upBuf, sgroups)
		if err := r.up.writeFrame(frameRelayStruct, r.upBuf); err != nil {
			ok = false
		} else {
			r.UpFrames.Add(1)
		}
	}
	if ok {
		r.up.flush()
	}
}
