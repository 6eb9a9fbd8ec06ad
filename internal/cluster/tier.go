package cluster

import (
	"fmt"
	"net"
	"sync"
)

// tierNode is what a non-leaf node of the aggregation tree does with the
// traffic of the connections below it. The downstream half of such a node —
// accept, opening frame, join, read loop, done, detach — is written once
// (tier.serve) and run by both kinds of node, which differ only here:
//
//   - Folded counts. A Relay max-merges them into per-site dirtyVecs and ships
//     the dirty sets upstream; the Coordinator, the root of the tree, merges
//     them into its reported rows and estimates from those. Both folds are the
//     same idempotent max-merge over monotone per-site counts, so a node never
//     needs to know whether a batch is fresh, duplicated or a replay.
//   - Membership events. A Relay records one and forwards it up; the
//     Coordinator decides it and replies. A site on its own connection is the
//     one-site case of a relay link: its hello, resume, Done and disconnect
//     reach the node as the events a relay forwards wrapped in frameRelayJoin,
//     and the replies travel back through peer.writeCtl either way.
type tierNode interface {
	// foldCounts merges one site's decided counter reports, foldStruct one
	// site's cumulative pair-cell counts stamped with the site's stream
	// position. The ids are already validated (see frameFolder).
	foldCounts(site uint32, ups []Update)
	foldStruct(site uint32, siteEvents uint64, ups []Update)
	// member handles one membership event of site, arrived on p — the site's
	// own connection or a relay link carrying it. kind is a frameRelayJoin
	// kind and inner that kind's payload; a relayJoinDetach may name a site
	// that has since moved to another connection and is then ignored. An error
	// drops the connection.
	member(p *peer, site uint32, kind byte, inner []byte) error
	// noteFrame is called for every frame received after the opening one,
	// before it is handled.
	noteFrame()
	// badOpening is told why a connection whose opening frame was malformed,
	// or named a site outside the run, is being dropped.
	badOpening(err error)
}

// tier is the downstream half of a non-leaf node: the accepted connections
// and the one path each of them is served on.
type tier struct {
	// folder is the template of every connection's data-frame reader: the
	// node, the run's bounds, and in from the node's prefix for error texts.
	folder frameFolder
	// base is the run configuration a child relay's hello is answered with
	// (Site and Events zero).
	base StartConfig
	// conns tracks every accepted connection — attached, carrying a relay, or
	// still handshaking — and its wait group joins the accept loop and the
	// connection readers: the node's Close closes them all and returns only
	// once they are gone.
	conns connSet
}

// init sets the tier up for node, a node of the run base describes over a
// layout of counters ids and cells pair cells (0 = structure learning off);
// prefix names the node in error texts.
func (t *tier) init(node tierNode, prefix string, base StartConfig, counters, cells uint32) {
	t.folder = frameFolder{
		target: node, from: prefix,
		sites: base.Sites, counters: counters,
		cells: cells, innerCap: innerFrameCap(counters, cells),
	}
	// Site and Events are meaningless for a relay.
	base.Site, base.Events = 0, 0
	t.base = base
}

// newFolder builds the data-frame reader for one connection (site =
// relayPeer for a relay link).
func (t *tier) newFolder(from string, site uint32) *frameFolder {
	f := t.folder
	f.from += from
	f.site = site
	return &f
}

// serve runs one accepted connection from its opening frame to its end. A
// site opens with hello or resume — its join — and a relay with relayHello,
// answered with the base configuration; then data frames fold and membership
// frames (a site's Done, a relay's wrapped joins) go to the node, until the
// connection dies or speaks garbage and every site it carried is detached.
// It reports whether the connection stays open after it returns — only a site
// whose Done was taken does, attached and idle, so the closing stats can reach
// it.
func (t *tier) serve(raw net.Conn) (keep bool) {
	p := &peer{raw: raw, c: newConn(raw)}
	node, sites := t.folder.target, t.folder.sites
	ft, payload, err := p.c.readFrame()
	if err != nil {
		// The dialer vanished (or a fault cut the opening frame): not a
		// protocol violation, just a dead connection.
		return false
	}
	var id uint32
	kind, inner := relayJoinHello, []byte(nil)
	switch ft {
	case frameHello:
		id, err = decodeHello(payload)
	case frameResume:
		var req resumeReq
		req, err = decodeResume(payload)
		id, kind, inner = req.Site, relayJoinResume, payload
	case frameRelayHello:
		id, err = decodeHello(payload)
		p.isRelay = true
	default:
		err = fmt.Errorf("cluster: first frame %d, want hello or resume", ft)
	}
	if err == nil && !p.isRelay && id >= sites {
		err = fmt.Errorf("cluster: site id %d out of range", id)
	}
	if err != nil {
		node.badOpening(err)
		return false
	}

	// The opening is valid: widen the read limit from the control-frame bound
	// to the largest data frame the run admits on this kind of connection.
	var f *frameFolder
	if p.isRelay {
		f = t.newFolder(fmt.Sprintf("relay %d", id), relayPeer)
		p.c.setReadLimit(relayPayloadCap(sites, f.innerCap))
		err = p.write(frameStart, encodeStart(t.base))
	} else {
		f = t.newFolder(fmt.Sprintf("site %d", id), id)
		p.c.setReadLimit(f.innerCap)
		err = node.member(p, id, kind, inner)
	}
	if err == nil && readFrames(p, f) {
		return true
	}
	// The connection is gone: its site — or, for a relay link, every site the
	// node still routes through it — is detached.
	lo, hi := id, id+1
	if p.isRelay {
		lo, hi = 0, sites
	}
	for site := lo; site < hi; site++ {
		_ = node.member(p, site, relayJoinDetach, nil)
	}
	return false
}

// readFrames is the read loop of tier.serve: it consumes p's frames after the
// opening and returns true once a site's own connection has delivered its
// Done, false when the connection died or spoke garbage — the peer is then
// expected to come back.
func readFrames(p *peer, f *frameFolder) (done bool) {
	node := f.target
	for {
		t, payload, err := p.c.readFrame()
		if err != nil {
			return false
		}
		node.noteFrame()
		if data, err := f.fold(t, payload); err != nil {
			return false
		} else if data {
			continue
		}
		site, kind, inner := f.site, relayJoinDone, payload
		switch {
		case t == frameDone && !p.isRelay:
		case t == frameRelayJoin && p.isRelay:
			if site, kind, inner, err = decodeRelayWrapped(payload); err == nil && kind == relayJoinResume {
				_, err = decodeResume(inner)
			}
			if err != nil || site >= f.sites {
				return false
			}
		default:
			return false
		}
		if node.member(p, site, kind, inner) != nil {
			return false
		}
		if !p.isRelay {
			return true
		}
	}
}

// connSet owns the connections a listener accepted and the goroutines
// serving them, so that Close means closed: closeAll closes every tracked
// connection — attached, idle after a Done, or still handshaking — and wg
// joins the accept loop and every handler.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// acceptLoop admits connections from ln until it fails (normally: is
// closed), serving each on its own goroutine — the one place connection
// readers start. handle reports whether the connection must stay open after
// it returns (a site that sent Done idles, attached, until the closing stats
// reach it); otherwise the connection is closed and forgotten.
func (s *connSet) acceptLoop(ln net.Listener, handle func(net.Conn) (keep bool)) error {
	for {
		raw, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			raw.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[raw] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			if !handle(raw) {
				raw.Close()
				s.mu.Lock()
				delete(s.conns, raw)
				s.mu.Unlock()
			}
		}()
	}
}

// closeAll closes every tracked connection and refuses new ones.
func (s *connSet) closeAll() {
	s.mu.Lock()
	s.closed = true
	for raw := range s.conns {
		raw.Close()
	}
	s.conns = nil
	s.mu.Unlock()
}
