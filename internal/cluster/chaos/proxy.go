// Package chaos is a fault-injection TCP proxy for cluster tests: it sits
// between the sites and the coordinator, understands the cluster's
// length-prefixed frame format, and injects connection faults at seeded,
// deterministic points — so a chaos test replays bit-for-bit from its seed
// and never depends on timing.
//
// Faults are scheduled by *frame counts*, not wall-clock: a connection is
// severed after its Nth client→server frame (optionally mid-frame, so the
// receiver sees a truncated payload — the partial-write case), update
// frames are duplicated by a seeded coin, and "delay" is modeled as holding
// a run of frames and releasing them in one burst (reordering-free latency
// without a sleep). Each connection's fault plan is derived from the proxy
// seed, the site id parsed from the connection's first frame (hello and
// resume both lead with the site id), and a per-site connection sequence
// number — deterministic regardless of accept interleaving across sites.
//
// The proxy deliberately does not import the cluster package (the cluster
// tests import chaos); it re-implements the five-byte frame header, which
// doubles as an independent check that the wire format is what the package
// comments claim.
package chaos

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"distbayes/internal/bn"
)

// maxFrame mirrors the cluster package's frame payload bound.
const maxFrame = 1 << 22

// Update frame types (duplication targets): the idempotent max-merge fold
// makes these — and only these — safe to deliver twice. A struct frame is
// not a target. In particular a frameStructDelta (type 15) carries the
// increments since the previous struct frame on its connection, so it is
// not idempotent on its own: a second copy is based on a position the
// receiver has already moved past, which the receiver rejects as a protocol
// error by closing the connection — a sever, which SeverMinFrames and
// MidFrameCutProb already inject, not a duplicate.
const (
	frameUpdates  byte = 3
	frameUpdates2 byte = 6
)

// Config selects which faults the proxy injects and how often. The zero
// value injects nothing (a transparent frame-forwarding proxy).
type Config struct {
	// Seed derives every per-connection fault plan.
	Seed uint64
	// SeverMinFrames/SeverMaxFrames, when max > 0, sever each connection
	// after a number of client→server frames drawn uniformly from
	// [min, max]. Choose min large enough that a resumed site makes forward
	// progress between cuts, or the site's resume budget drains.
	SeverMinFrames, SeverMaxFrames int
	// MidFrameCutProb is the probability that a sever lands mid-frame: the
	// header and half the payload are forwarded before the cut, so the
	// receiver sees a truncated frame (the partial-write fault).
	MidFrameCutProb float64
	// DupProb is the per-frame probability of delivering an update frame
	// (types 3 and 6) twice. Other frames, struct frames included, are never
	// duplicated.
	DupProb float64
	// HoldEvery/HoldFrames, when both > 0, model delay: every HoldEvery
	// frames the proxy buffers the next HoldFrames frames and releases them
	// in one burst.
	HoldEvery, HoldFrames int
	// Tap, when set, observes every client→server frame after the handshake
	// as the site sent it — before any fault is applied, so a frame the
	// proxy then drops is still seen. Called from one goroutine per
	// connection; the callback synchronizes.
	Tap func(site uint32, frameType byte, payload []byte)
}

// Proxy is a frame-aware fault-injecting TCP proxy. Create with New, point
// the sites at Addr, and retarget a restarted coordinator with SetTarget —
// the proxy is the stable rendezvous address that survives a coordinator
// restart.
type Proxy struct {
	cfg    Config
	ln     net.Listener
	closed atomic.Bool

	// Fault telemetry, so tests can assert the faults actually fired.
	severs  atomic.Int64
	dups    atomic.Int64
	accepts atomic.Int64

	mu     sync.Mutex
	target string
	seq    map[uint32]uint64 // per-site connection counter
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// New starts a proxy on 127.0.0.1:0 forwarding to target.
func New(cfg Config, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		cfg:    cfg,
		ln:     ln,
		target: target,
		seq:    make(map[uint32]uint64),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listening address (give this to the sites).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Severed returns how many connections the proxy has cut so far.
func (p *Proxy) Severed() int64 { return p.severs.Load() }

// Duplicated returns how many update frames were delivered twice so far.
func (p *Proxy) Duplicated() int64 { return p.dups.Load() }

// Connections returns how many client connections the proxy has admitted.
func (p *Proxy) Connections() int64 { return p.accepts.Load() }

// SetTarget atomically changes the forward address for *future* connections
// — existing connections keep their backend. Used when a killed coordinator
// restarts on a new port.
func (p *Proxy) SetTarget(addr string) {
	p.mu.Lock()
	p.target = addr
	p.mu.Unlock()
}

// Close stops the proxy and closes every live connection, then waits for
// the forwarding goroutines to drain.
func (p *Proxy) Close() error {
	p.closed.Store(true)
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return nil
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handle(client)
	}
}

// track registers a connection for Close; returns false if already closing.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// plan is one connection's precomputed fault schedule.
type plan struct {
	rng        *bn.RNG
	severAfter int  // sever after this many frames (0 = never)
	midCut     bool // sever lands mid-frame
}

// newPlan derives the deterministic fault plan for the seq'th connection of
// site id.
func (p *Proxy) newPlan(site uint32, seq uint64) *plan {
	rng := bn.NewRNG(p.cfg.Seed ^ uint64(site)*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9)
	pl := &plan{rng: rng}
	if p.cfg.SeverMaxFrames > 0 {
		span := p.cfg.SeverMaxFrames - p.cfg.SeverMinFrames + 1
		pl.severAfter = p.cfg.SeverMinFrames + rng.Intn(span)
		pl.midCut = rng.Float64() < p.cfg.MidFrameCutProb
	}
	return pl
}

// readFrame reads one full frame (header + payload) from r.
func readFrame(r io.Reader) (hdr [5]byte, payload []byte, err error) {
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return hdr, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return hdr, nil, fmt.Errorf("chaos: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if got, err := io.ReadFull(r, payload); err != nil {
		// Surface what did arrive: a mid-frame cut leaves a readable header
		// and a truncated payload, and callers may want to see the stub.
		return hdr, payload[:got], err
	}
	return hdr, payload, nil
}

// handle proxies one client connection: the first client frame identifies
// the site (hello and resume both lead with a u32 site id), which keys the
// deterministic fault plan; then client→server frames flow through the
// fault pipeline while server→client bytes are forwarded verbatim.
func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	if !p.track(client) {
		client.Close()
		return
	}
	defer p.untrack(client)
	defer client.Close()

	p.accepts.Add(1)
	hdr, payload, err := readFrame(client)
	if err != nil {
		return
	}
	site := uint32(0)
	if len(payload) >= 4 {
		site = binary.LittleEndian.Uint32(payload[:4])
	}
	p.mu.Lock()
	target := p.target
	seq := p.seq[site]
	p.seq[site] = seq + 1
	p.mu.Unlock()
	pl := p.newPlan(site, seq)

	server, err := net.Dial("tcp", target)
	if err != nil {
		return // the site's dial retry handles a briefly-absent coordinator
	}
	if !p.track(server) {
		server.Close()
		return
	}
	defer p.untrack(server)
	defer server.Close()

	// Server→client: transparent. Closing either side unblocks the other.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		io.Copy(client, server)
		client.Close()
	}()

	frames := 0
	var held []byte // buffered burst for the hold fault
	holding := 0
	forward := func(b []byte) error {
		if holding > 0 {
			held = append(held, b...)
			holding--
			if holding == 0 && len(held) > 0 {
				_, err := server.Write(held)
				held = held[:0]
				return err
			}
			return nil
		}
		_, err := server.Write(b)
		return err
	}

	// The handshake frame passes through un-faulted (frame 1); severing it
	// forever would starve the run no matter the budget.
	frame := make([]byte, 0, 5+len(payload))
	frame = append(frame, hdr[:]...)
	frame = append(frame, payload...)
	if _, err := server.Write(frame); err != nil {
		return
	}
	frames++

	for {
		hdr, payload, err := readFrame(client)
		if err != nil {
			// Flush anything held so a clean client close is not lossy.
			if len(held) > 0 {
				server.Write(held)
			}
			return
		}
		frames++
		if p.cfg.Tap != nil {
			p.cfg.Tap(site, hdr[0], payload)
		}
		if pl.severAfter > 0 && frames >= pl.severAfter {
			p.severs.Add(1)
			if pl.midCut && len(payload) > 1 {
				cut := append(append([]byte(nil), hdr[:]...), payload[:len(payload)/2]...)
				server.Write(cut)
			}
			return // defers close both halves: the sever
		}
		frame = frame[:0]
		frame = append(frame, hdr[:]...)
		frame = append(frame, payload...)
		t := hdr[0]
		if t != frameUpdates && t != frameUpdates2 {
			// Control frames (done, resume) release any held burst and pass
			// straight through: holding a done frame with no traffic behind
			// it would wedge the run forever, and the harness has no timers
			// to unwedge it.
			if len(held) > 0 {
				if _, err := server.Write(held); err != nil {
					return
				}
				held = held[:0]
			}
			holding = 0
			if _, err := server.Write(frame); err != nil {
				return
			}
			continue
		}
		if p.cfg.HoldEvery > 0 && p.cfg.HoldFrames > 0 && holding == 0 && frames%p.cfg.HoldEvery == 0 {
			holding = p.cfg.HoldFrames
		}
		if err := forward(frame); err != nil {
			return
		}
		if p.cfg.DupProb > 0 && pl.rng.Float64() < p.cfg.DupProb {
			p.dups.Add(1)
			if err := forward(frame); err != nil {
				return
			}
		}
	}
}
