// Package cluster is the live implementation of the distributed monitoring
// system over real TCP connections (the paper runs the same architecture on
// an AWS EC2 cluster; here the sites and coordinator talk over loopback or
// any reachable network, see README, Reproducing the paper).
//
// Architecture: one coordinator process listens; k site processes connect,
// directly or through a tree of relays (relay.go). Each site generates its
// share of the training stream locally (the stream is horizontally
// partitioned), runs the site-side half of the approximate counters, and
// sends counter updates. The coordinator maintains the tracked model and
// answers queries *at any time* — the paper's query model — not just after
// the stream ends.
//
// # One data plane
//
// The paper's protocol has one site-side rule (increment the local counter,
// flip the coin, ship the local count) and one receiver-side rule (keep each
// site's latest count, add the trailing-gap adjustment); flat, batched and
// tree runs differ only in where a decided report travels. The code has one
// implementation of each side:
//
//   - Send: siteRun.stream (site.go) is the only stream loop. It draws the
//     event, increments and decides, and at every window boundary
//     (StartConfig.BatchEvents events; 0 means a window of one — the
//     per-event protocol) hands the window's decided reports, ascending, to
//     siteRun.shipWindow, the only writer of counter reports: one
//     frameUpdates2 frame per non-empty window on the site's one
//     connection. Report decisions are made per increment by the same
//     seeded site RNG in every mode and counts are monotone, so the window
//     size changes how many frames carry the reports, never a final
//     estimate (TestMatrix's cluster-batched row in internal/core); a report is
//     delayed by at most one window, staleness of the same kind as the
//     trailing gap the report probability already models.
//   - Receive: tier.serve (tier.go) is the only connection path of a
//     non-leaf node — accept, opening frame (hello, resume or relayHello),
//     join, one read loop, done, detach — and the Coordinator, the root of
//     the relay tree, runs the same one every Relay does. Inside it,
//     frameFolder.fold (fold.go) is the only place the six data frames are
//     decoded — frameUpdates, frameUpdates2, frameStructStats and
//     frameStructDelta from a site, frameRelayUpdates and frameRelayStruct
//     from a relay: it decodes the whole frame, bounds-checks every id
//     against the layout before anything is folded, and hands each site's
//     batch to the node. The two
//     kinds of node differ only behind tierNode: a Relay folds into
//     per-site dirty vectors it ships upstream and forwards membership
//     events (join, Done, detach) up wrapped; the Coordinator folds into
//     its reported rows and structure engine, estimates from them, and
//     decides membership events — a site on its own connection is the
//     one-site case of a relay link. Both folds are the same idempotent
//     max-merge (maxMerge), which is what makes relays, replays and
//     duplicated frames invisible to the final estimates.
//
// The coordinator has one lock: one reader goroutine per connection folds a
// decoded batch into the reported-count matrix under it and bumps one version
// counter. The live query paths (Coordinator.QueryProb, EstimatedModel) are
// served from an immutable estimate snapshot revalidated against that version
// — repeated queries against a quiescent coordinator share one snapshot with
// no lock traffic, and queries racing ingestion rebuild it one at a time. (A
// lock-striped variant of the fold measured no faster on any workload and
// was removed; estimates never depended on it.) With batching off the
// coordinator reproduces the historical serial implementation's updates,
// frame count and estimates bit for bit (pinned by
// TestSequentialClusterBitCompat's goldens: PR 3 HEAD's, re-recorded once
// when the sites' report schedule changed to drawn gaps).
//
// The wire protocol is versioned by frame type and append-only: every frame
// type ever shipped still decodes (the fixed-width frameUpdates of the first
// protocol version included, exercised by the fuzz corpus), while writers
// emit exactly one format per kind of traffic. Every decoder
// length-validates a frame against the layout before allocating
// (updatesPayloadCap, fuzzed by FuzzDecodeFrame).
//
// Structure statistics are the one stateful data frame. Every struct frame
// still means a cumulative count per pair cell, but after the first struct
// frame of a connection a site ships only the increments since the previous
// one (frameStructDelta), and the connection's frameFolder — the receiver's
// state for exactly that connection — adds them back onto the vector the
// previous frame left. Everything past the reader (the structure engine,
// a relay's fold and uplink, checkpoints) folds the same cumulative counts
// as before. A delta that does not follow the connection's last struct frame
// is a protocol error that closes the connection; the site's resume opens a
// new one with a cumulative frame. A site ships deltas only to a receiver
// that advertises them in its StartConfig; a tree that mixes relays from
// before frameStructDelta with newer coordinators is not supported.
//
// Two deliberate deviations from the paper's protocol are documented here:
//
//  1. The counters are coordinator-free: the sites and the coordinator run
//     counter.OneWayKind, not the HYZ counter of the in-process tracker. A
//     site estimates the global count of a counter as k times its own local
//     count (events are routed uniformly, the paper's setup) and derives
//     the report probability p = min(1, √k/(ε'·k·n_local)) from it
//     (counter.OneWayReportProb). A site decides it in siteCounters.event:
//     while p is 1 by an integer compare (counter.OneWayExactUntil), and
//     past that by drawing the gap to its next report and thinning it
//     (counter.OneWayGap), which reports each count with the same p at one
//     compare per increment between proposals. The coordinator sums
//     counter.OneWayEstimate over the sites' last reports
//     (Coordinator.estimatesLocked). Both functions live in internal/counter,
//     so a core.Tracker running the kind reproduces a cluster run bit for
//     bit (TestMatrix's oneway-tracker rows in internal/core), and the
//     counter package doc sets its message cost beside HYZ's. This removes
//     the synchronization round-trips and every coordinator → site message;
//     no theorem of the paper covers it, and the trade-off is imprecision
//     under skewed routing, measured by TestMatrix's cluster-flat,
//     cluster-hot50 and cluster-hot90 rows: on ALARM with ε = 0.9, k = 4
//     and 2 000 events, the share of counters past their exact phase whose
//     estimate misses its count by more than ε′ is 10–14 % under even
//     routing, 12–15 % with half the stream routed to one hot site and
//     39–43 % with 90 % — as for the test's own one-way reference counter
//     on the same events (10–12, 14–16 and 40–41 %), which the rows hold
//     them to.
//  2. The paper's transmission optimization is applied: all counter updates
//     triggered by one event are merged into a single frame, and an event
//     that triggers no update sends nothing. Batching extends the same idea
//     across the events of a window.
//
// # Fault tolerance: reconnect, resume, checkpoint
//
// The cluster survives the loss of any process. A site that already holds
// run state opens its connection with frameResume (site id + events
// processed) instead of frameHello, and the coordinator acks with its run
// epoch, the site's recorded event count and completion flags. On resume the
// site replays its latest decided count for every counter as one window
// before continuing the stream.
//
// Crash-safety rests on three invariants, asserted bit-exactly by the chaos
// suite (chaos_test.go) rather than only within the (ε, δ) envelope:
//
//  1. Site-local counts are monotone and the coordinator folds reports with
//     an idempotent max-merge — replayed, duplicated or stale frames can
//     never move a matrix cell past, or back from, its true value.
//  2. Site streams are deterministic (seeded generator, seeded report RNG),
//     and an event is marked consumed before any fallible network write —
//     so a restarted or resumed site re-derives exactly the counts it lost,
//     and a connection error can never re-draw a consumed sample.
//  3. Checkpoints are a consistent lower bound of the run: the DBCLUS01
//     file (checkpoint.go) is cadenced on received frames (deterministic,
//     not wall clock), written atomically and durably (temp file, fsync,
//     rename, fsync of the directory), and the
//     restored matrix is raised to the exact uninterrupted state by resume
//     replays. A coordinator killed at any frame therefore converges after
//     restore, and the estimates match the uninterrupted run bit for bit
//     (TestChaosCoordinatorKillRestartConverges, and
//     TestCheckpointGoldenBitCompat against the same goldens).
//
// Under site churn — every site killed twice mid-stream and restarted
// (TestChaosSiteKillRestartBitIdentical) — the estimates match the
// uninterrupted run bit for bit on every strategy, to set against the
// skewed-routing imprecision above: process failure costs retransmitted
// frames, never accuracy. Connection supervision is retry-with-backoff on
// the site side (Site.MaxResumes bounds consecutive no-progress resumes)
// and a reconnect grace window on the coordinator side
// (DefaultReconnectGrace): a run only fails once a site stays gone past the
// grace or stops making progress entirely.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
)

// Frame types. The wire protocol is versioned by frame type and append-only:
// sites report in frameUpdates2 frames, and the fixed-width frameUpdates of
// the first protocol version still decodes, so old sites interoperate with a
// new coordinator; the StartConfig encoding likewise accepts the version-1
// length (see decodeStart).
const (
	// frameHello introduces a site: payload = site id (u32).
	frameHello byte = 1
	// frameStart carries the run configuration (coordinator → site).
	frameStart byte = 2
	// frameUpdates carries merged counter updates for one event
	// (site → coordinator): repeated (counterID u32, localCount i64).
	// Decode-only: current sites send frameUpdates2.
	frameUpdates byte = 3
	// frameDone signals a site has exhausted its stream: payload = site id,
	// events processed (i64).
	frameDone byte = 4
	// frameStats is the coordinator's closing reply: payload = total frames,
	// total updates, total events (i64 each).
	frameStats byte = 5
	// frameUpdates2 carries one window of decided reports — a batching
	// window, a single event's reports in per-event mode, or a resume replay
	// (site → coordinator): uvarint entry count, then per entry the uvarint
	// counter-id delta (ids strictly ascending; the first delta is the id
	// itself) and the uvarint local count. Within a window only the latest
	// local count per counter survives — counts are monotone, so coalescing
	// loses nothing the trailing-gap adjustment does not already model.
	frameUpdates2 byte = 6
	// frameResume re-introduces a site whose connection dropped mid-run
	// (protocol version 3, site → coordinator): payload = site id (u32),
	// events processed so far (u64), flags (u8, reserved zero). Unlike
	// frameHello, a resume keeps the site's in-memory state: after the ack
	// the site replays its latest decided per-counter local counts in one
	// frameUpdates2 frame — safe because counts are monotone and the
	// coordinator's max-merge fold is idempotent — then continues its stream
	// from where it stopped.
	frameResume byte = 7
	// frameResumeAck answers a resume (coordinator → site): payload = run
	// epoch (u64, bumped every checkpoint restore), the coordinator's
	// recorded event count for the site (u64, nonzero only once the site's
	// Done was accepted), and flags (u8: resumeRunComplete, resumeSiteDone).
	// When resumeRunComplete is set the coordinator follows the ack with the
	// closing frameStats on the same connection, so a site that crashed
	// after the run finished still collects its stats.
	frameResumeAck byte = 8
	// frameStructStats carries a site's cumulative pairwise-MI sufficient
	// statistics for online structure learning (protocol version 4,
	// site → coordinator): uvarint site event count, then the frameUpdates2
	// entry encoding over StructLayout cell ids — uvarint entry count,
	// per-entry uvarint cell-id delta (strictly ascending) and uvarint
	// cumulative co-occurrence count. Counts are cumulative and monotone, so
	// the coordinator's max-merge fold absorbs replays and duplicates
	// exactly like counter updates; the frame is append-only over versions
	// 1-3 (a coordinator not running structure learning never requests it
	// and old coordinators never see it). A site whose receiver decodes
	// frameStructDelta sends it only as the first struct frame of each
	// connection.
	frameStructStats byte = 9
	// frameRelayHello introduces an aggregation-tree relay to its parent
	// (protocol version 5, relay → coordinator or relay → relay): payload =
	// relay id (u32, diagnostic only). The parent replies with a frameStart
	// carrying the run's base configuration (Site and Events zero), from
	// which the relay derives the counter layout it folds over.
	frameRelayHello byte = 10
	// frameRelayJoin wraps one downstream site's control traffic traveling
	// up through a relay (relay → parent): payload = site id (u32), a join
	// kind byte (relayJoinHello, relayJoinResume, relayJoinReattach,
	// relayJoinDone, relayJoinDetach) and the kind's inner payload (empty,
	// a frameResume payload, or a frameDone payload). The parent handles
	// the wrapped frame exactly as it would on a direct site connection and
	// answers, when the kind warrants a reply, with frameRelayCtl.
	frameRelayJoin byte = 11
	// frameRelayCtl wraps coordinator → site control traffic traveling down
	// through a relay (parent → relay): payload = site id (u32), the inner
	// frame type (frameStart, frameResumeAck or frameStats) and the inner
	// frame's payload verbatim. The relay unwraps it and writes the inner
	// frame on the named site's downstream connection.
	frameRelayCtl byte = 12
	// frameRelayUpdates carries a relay's folded counter state upstream
	// (relay → parent): uvarint group count, then per group a uvarint site
	// id, a uvarint byte length, and that site's folded counter vector as a
	// frameUpdates2 payload. The relay folds its children's monotone
	// per-site vectors with the same idempotent max-merge the coordinator
	// applies, so folding mid-tier and coalescing many sites into one frame
	// cannot change any final estimate — it only divides the parent's
	// frame rate by the relay's branching factor.
	frameRelayUpdates byte = 13
	// frameRelayStruct is frameRelayUpdates for structure-learning
	// statistics: uvarint group count, then per group a uvarint site id, a
	// uvarint byte length, and that site's cumulative statistics as a
	// frameStructStats payload.
	frameRelayStruct byte = 14
	// frameStructDelta carries a site's structure statistics as increments
	// (protocol version 6, site → coordinator or relay): uvarint base
	// position — the site event count of the previous struct frame on this
	// connection — then the uvarint site event count, then exactly one
	// uvarint per StructLayout cell, in cell order, giving the cell's
	// increment since the base. The frame is not self-contained: the
	// receiver rebuilds the cumulative counts from the vector the
	// connection's previous struct frame left, so it is never the first
	// struct frame of a connection, and a site sends it only when its
	// StartConfig has StructDelta set.
	frameStructDelta byte = 15
)

// startStructDelta is the StartConfig flags bit behind StartConfig.StructDelta.
const startStructDelta uint32 = 1 << 0

// frameRelayJoin kinds.
const (
	// relayJoinHello: a site joined the relay with frameHello; inner payload
	// empty (the outer site id carries the identity). Reply: a wrapped
	// frameStart.
	relayJoinHello byte = 0
	// relayJoinResume: a site reconnected with frameResume; inner payload =
	// the frameResume payload. Reply: a wrapped frameResumeAck (plus a
	// wrapped frameStats when the run is already complete).
	relayJoinResume byte = 1
	// relayJoinReattach: the relay's upstream connection was re-established
	// and this already-admitted site is still attached downstream; inner
	// payload empty, no reply. Cancels the site's reconnect-grace timer.
	relayJoinReattach byte = 2
	// relayJoinDone: the site's stream is exhausted; inner payload = the
	// frameDone payload. The relay flushes its folded state upstream before
	// forwarding, so the coordinator's matrix reflects every report the
	// site decided before its Done is counted. No reply (the closing stats
	// are broadcast later).
	relayJoinDone byte = 3
	// relayJoinDetach: the site's downstream connection died; inner payload
	// empty, no reply. Arms the site's reconnect-grace timer at the
	// coordinator, exactly as a direct disconnect would.
	relayJoinDetach byte = 4
)

// frameResumeAck flag bits.
const (
	// resumeRunComplete: the whole run already finished; stats follow.
	resumeRunComplete byte = 1 << 0
	// resumeSiteDone: the coordinator has already accepted this site's Done
	// marker (the site need not re-stream, only wait for stats).
	resumeSiteDone byte = 1 << 1
)

// maxFrame bounds a frame payload; large networks send at most 2n update
// entries of 12 bytes per event.
const maxFrame = 1 << 22

// maxControlFrame bounds the control frames (hello, start, done, stats),
// none of which come close to 4 KB; connections start at this limit and the
// coordinator widens it to the layout-derived update bound after the
// handshake (see updatesPayloadCap).
const maxControlFrame = 1 << 12

// updatesPayloadCap is the largest well-formed update payload for a layout
// of n counters, used to validate a frame header against the layout before
// the payload is allocated (the frame-IO mirror of LoadState's StateLen
// check). A fixed-width frameUpdates frame merges the distinct counters one
// event touched (≤ n entries of 12 bytes); a frameUpdates2 frame coalesces a
// window to at most n entries of ≤ 15 varint bytes plus the count header.
func updatesPayloadCap(numCounters uint32) uint32 {
	return clampFrame(uint64(binary.MaxVarintLen32) + uint64(numCounters)*(binary.MaxVarintLen32+binary.MaxVarintLen64))
}

// clampFrame bounds a computed payload cap to what a connection can carry:
// at most maxFrame, at least maxControlFrame (room for the control frames —
// done, joins — that share the connection).
func clampFrame(cap uint64) uint32 {
	return uint32(min(max(cap, maxControlFrame), maxFrame))
}

// structPayloadCap is the largest well-formed frameStructStats payload for a
// structure layout of numCells pair cells — the struct-stats mirror of
// updatesPayloadCap, used to widen a connection's read limit when structure
// learning is on. A frameStructDelta payload (two uvarint positions and one
// uvarint per cell) is never larger.
func structPayloadCap(numCells uint32) uint32 {
	return clampFrame(uint64(binary.MaxVarintLen64) + uint64(binary.MaxVarintLen32) +
		uint64(numCells)*(binary.MaxVarintLen32+binary.MaxVarintLen64))
}

// innerFrameCap is the largest site-level data-frame payload a run admits:
// the read limit for a direct site connection, and the per-group inner bound
// on relay links. numCells is 0 with structure learning off.
func innerFrameCap(numCounters, numCells uint32) uint32 {
	if numCells == 0 {
		return updatesPayloadCap(numCounters)
	}
	return max(updatesPayloadCap(numCounters), structPayloadCap(numCells))
}

// Update is one counter update entry inside a frameUpdates frame.
type Update struct {
	// Counter is the global counter id (see counterLayout).
	Counter uint32
	// LocalCount is the site's current local count for the counter.
	LocalCount int64
}

// StartConfig is the run configuration shipped to every site.
type StartConfig struct {
	// NetName is a netgen registry name; both sides regenerate the network
	// deterministically instead of shipping the structure.
	NetName string
	// CPTSeed seeds ground-truth parameter generation.
	CPTSeed uint64
	// Strategy is the core.Strategy ordinal.
	Strategy uint8
	// Eps, Delta are the tracker budget.
	Eps, Delta float64
	// Sites is k.
	Sites uint32
	// Site is the receiver's site id in [0, k).
	Site uint32
	// Events is the number of events this site must generate.
	Events uint64
	// StreamSeed seeds this site's event stream.
	StreamSeed uint64
	// LatencyMicros is an artificial per-frame delay emulating WAN RTT.
	LatencyMicros uint32
	// BatchEvents is the site's report window: decided reports coalesce
	// (latest count per counter) and ship as one frame every BatchEvents
	// events. 0 is the per-event protocol, a window of one: one frame per
	// event that triggered a report.
	BatchEvents uint32
	// StructBatchEvents is the online structure-learning cadence (protocol
	// version 4): the site accumulates pairwise co-occurrence counts over
	// all variable pairs and ships its cumulative statistics as one
	// frameStructStats frame every StructBatchEvents events. 0 disables
	// structure learning (no struct frames, no per-event pair accounting).
	StructBatchEvents uint32
	// DriftAtEvent, when DriftNetName is nonempty, is the absolute stream
	// position at which this site's generating model switches from the base
	// network to the drift network — the mid-stream structure-change
	// scenario. Absolute positions keep the switch deterministic across
	// reconnects and restarts.
	DriftAtEvent uint64
	// DriftCPTSeed seeds the drift model's ground-truth parameters.
	DriftCPTSeed uint64
	// DriftNetName names the post-drift generating network (netgen registry
	// name, regenerated deterministically on both sides like NetName). It
	// must describe the same variables (names and cardinalities) as NetName;
	// only the structure and parameters may differ. Empty = no drift.
	DriftNetName string
	// StructDelta is set by a receiver that decodes frameStructDelta
	// (protocol version 6: a flags word after the drift name). With it the
	// site ships each connection's first struct frame cumulative and every
	// later one as increments; without it, frameStructStats only.
	StructDelta bool
}

// Stats is the coordinator's closing summary sent to each site and returned
// to the caller.
type Stats struct {
	// Frames is the number of network frames the coordinator received.
	Frames int64
	// Updates is the number of counter-update entries received (the paper's
	// per-counter message metric).
	Updates int64
	// Events is the total number of events processed across sites.
	Events int64
}

// conn wraps a net.Conn (or any ReadWriter) with buffered, length-prefixed
// frame IO. Frames: type byte, u32 payload length, payload. The read side
// enforces a payload limit that starts at the control-frame bound and is
// widened by the owner once the expected frame sizes are known (the
// coordinator raises it to the layout-derived update cap after the
// handshake), so a corrupt or hostile length header is rejected before any
// payload is allocated.
type conn struct {
	r *bufio.Reader
	w *bufio.Writer
	// maxPayload bounds accepted frame payloads on the read side.
	maxPayload uint32
}

func newConn(rw io.ReadWriter) *conn {
	return &conn{
		r:          bufio.NewReaderSize(rw, 1<<16),
		w:          bufio.NewWriterSize(rw, 1<<16),
		maxPayload: maxControlFrame,
	}
}

// setReadLimit installs the read-side payload bound (clamped to maxFrame).
func (c *conn) setReadLimit(n uint32) {
	if n > maxFrame {
		n = maxFrame
	}
	c.maxPayload = n
}

func (c *conn) writeFrame(t byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = t
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(payload); err != nil {
		return err
	}
	return nil
}

func (c *conn) flush() error { return c.w.Flush() }

// send writes one frame and flushes.
func (c *conn) send(t byte, payload []byte) error {
	if err := c.writeFrame(t, payload); err != nil {
		return err
	}
	return c.flush()
}

func (c *conn) readFrame() (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > c.maxPayload {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, c.maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// peer is an accepted connection as its owner (coordinator or relay) writes
// control frames to it: a site's own connection, or — isRelay — a relay link
// carrying many sites, on which a site's control frames travel wrapped in
// frameRelayCtl for the relay to unwrap and deliver. Handshake replies, ctl
// deliveries and the closing stats race each other, so writers hold wmu.
type peer struct {
	raw     net.Conn
	c       *conn
	isRelay bool
	wmu     sync.Mutex
}

// write sends one frame and flushes.
func (p *peer) write(t byte, payload []byte) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.c.send(t, payload)
}

// writeCtl sends site one control frame (frameStart, frameResumeAck,
// frameStats), wrapped when the next hop is a relay.
func (p *peer) writeCtl(site uint32, t byte, payload []byte) error {
	if p.isRelay {
		t, payload = frameRelayCtl, encodeRelayWrapped(site, t, payload)
	}
	return p.write(t, payload)
}

// encodeStart serializes a StartConfig. The trailing fields are append-only
// version extensions: BatchEvents (version 2) is emitted only when batching
// is on, so a coordinator not using batching sends the version-1 length and
// old site binaries — whose decoders require that length exactly — still
// interoperate. (A batching coordinator genuinely needs version-2 sites.)
// The version-4 tail (StructBatchEvents, the drift fields) is likewise
// emitted only when structure learning or drift is configured, and always
// includes BatchEvents so the decoder's length switch stays unambiguous. The
// version-6 flags word follows the drift name only when a flag is set.
func encodeStart(cfg StartConfig) []byte {
	name := []byte(cfg.NetName)
	driftName := []byte(cfg.DriftNetName)
	buf := make([]byte, 0, 96+len(name)+len(driftName))
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put32(uint32(len(name)))
	buf = append(buf, name...)
	put64(cfg.CPTSeed)
	buf = append(buf, cfg.Strategy)
	put64(math.Float64bits(cfg.Eps))
	put64(math.Float64bits(cfg.Delta))
	put32(cfg.Sites)
	put32(cfg.Site)
	put64(cfg.Events)
	put64(cfg.StreamSeed)
	put32(cfg.LatencyMicros)
	v4 := cfg.StructBatchEvents != 0 || cfg.DriftNetName != "" || cfg.DriftAtEvent != 0 || cfg.DriftCPTSeed != 0 || cfg.StructDelta
	if cfg.BatchEvents != 0 || v4 {
		put32(cfg.BatchEvents)
	}
	if v4 {
		put32(cfg.StructBatchEvents)
		put64(cfg.DriftAtEvent)
		put64(cfg.DriftCPTSeed)
		put32(uint32(len(driftName)))
		buf = append(buf, driftName...)
	}
	if cfg.StructDelta {
		put32(startStructDelta)
	}
	return buf
}

// decodeStart parses a StartConfig payload. Version-1 frames (without the
// trailing BatchEvents field) are still accepted and decode with
// BatchEvents = 0, so an old coordinator can drive a new site; version-2
// frames decode with the structure-learning and drift fields zero; the
// version-4 tail is length-validated exactly (fixed fields plus the drift
// name it declares). A version-5 frame carries 8 more bytes — a stripe index
// and count from a coordinator of the striped federation this build no
// longer has: it still length-validates, decodes when the count is 0 and is
// refused by name otherwise. A version-6 frame carries 4 bytes instead — the
// flags word; bits this build does not know are ignored.
func decodeStart(b []byte) (StartConfig, error) {
	var cfg StartConfig
	if len(b) < 4 {
		return cfg, fmt.Errorf("cluster: short start frame")
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(len(b)) < uint64(n) {
		return cfg, fmt.Errorf("cluster: start frame name truncated")
	}
	cfg.NetName = string(b[:n])
	b = b[n:]
	const restV1 = 8 + 1 + 8 + 8 + 4 + 4 + 8 + 8 + 4
	const restV2 = restV1 + 4
	const restV4 = restV2 + 4 + 8 + 8 + 4 // + drift name bytes
	v2, v4 := false, false
	switch {
	case len(b) == restV1:
	case len(b) == restV2:
		v2 = true
	case len(b) >= restV4:
		v2, v4 = true, true
	default:
		return cfg, fmt.Errorf("cluster: start frame length %d, want %d, %d or >= %d", len(b), restV1, restV2, restV4)
	}
	cfg.CPTSeed = binary.LittleEndian.Uint64(b)
	b = b[8:]
	cfg.Strategy = b[0]
	b = b[1:]
	cfg.Eps = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	cfg.Delta = math.Float64frombits(binary.LittleEndian.Uint64(b))
	b = b[8:]
	cfg.Sites = binary.LittleEndian.Uint32(b)
	b = b[4:]
	cfg.Site = binary.LittleEndian.Uint32(b)
	b = b[4:]
	cfg.Events = binary.LittleEndian.Uint64(b)
	b = b[8:]
	cfg.StreamSeed = binary.LittleEndian.Uint64(b)
	b = b[8:]
	cfg.LatencyMicros = binary.LittleEndian.Uint32(b)
	b = b[4:]
	if v2 {
		cfg.BatchEvents = binary.LittleEndian.Uint32(b)
		b = b[4:]
	}
	if v4 {
		cfg.StructBatchEvents = binary.LittleEndian.Uint32(b)
		b = b[4:]
		cfg.DriftAtEvent = binary.LittleEndian.Uint64(b)
		b = b[8:]
		cfg.DriftCPTSeed = binary.LittleEndian.Uint64(b)
		b = b[8:]
		dn := binary.LittleEndian.Uint32(b)
		b = b[4:]
		// The version-5 stripe tail (index, count) and the version-6 flags
		// follow the drift name, so the length switch stays exact: drift-name
		// bytes alone is version 4, + 8 is version 5, + 4 is version 6.
		switch uint64(len(b)) {
		case uint64(dn):
		case uint64(dn) + 4:
			cfg.StructDelta = binary.LittleEndian.Uint32(b[dn:])&startStructDelta != 0
			b = b[:dn]
		case uint64(dn) + 8:
			if stripes := binary.LittleEndian.Uint32(b[dn+4:]); stripes > 0 {
				return cfg, fmt.Errorf("cluster: start frame names stripe %d of %d, but striped coordinator federation was removed (scale out with relays)",
					binary.LittleEndian.Uint32(b[dn:]), stripes)
			}
			b = b[:dn]
		default:
			return cfg, fmt.Errorf("cluster: start frame drift name declares %d bytes, has %d", dn, len(b))
		}
		cfg.DriftNetName = string(b)
	}
	return cfg, nil
}

// decodeUpdates parses a frameUpdates payload — the fixed-width format no
// writer emits any more (wire formats are append-only: old sites and the
// committed fuzz corpus still speak it) — appending the entries to dst. Ids
// are not validated here; the caller bounds-checks them against its layout.
func decodeUpdates(dst []Update, b []byte) ([]Update, error) {
	if len(b)%12 != 0 {
		return nil, fmt.Errorf("cluster: updates frame length %d not a multiple of 12", len(b))
	}
	for len(b) > 0 {
		dst = append(dst, Update{
			Counter:    binary.LittleEndian.Uint32(b[:4]),
			LocalCount: int64(binary.LittleEndian.Uint64(b[4:12])),
		})
		b = b[12:]
	}
	return dst, nil
}

// encodeUpdates2 serializes a coalesced batching window into dst (reused).
// ups must be sorted by strictly ascending counter id and every LocalCount
// must be non-negative — the site-side delta batch guarantees both. Ids are
// delta-encoded and everything is uvarint, so a window frame costs a few
// bytes per touched counter instead of 12.
func encodeUpdates2(dst []byte, ups []Update) []byte {
	dst = binary.AppendUvarint(dst[:0], uint64(len(ups)))
	prev := uint32(0)
	for _, u := range ups {
		dst = binary.AppendUvarint(dst, uint64(u.Counter-prev)) // first entry: prev is 0, the delta is the id itself
		dst = binary.AppendUvarint(dst, uint64(u.LocalCount))
		prev = u.Counter
	}
	return dst
}

// decodeUpdates2 parses a frameUpdates2 payload, appending the entries to
// dst. Before any allocation it validates that the declared entry count fits
// both the layout (maxCounters — a coalesced window cannot hold more entries
// than there are counters) and the payload length (every entry is at least
// two bytes). Ids must be strictly ascending and within the layout; counts
// must be non-negative.
func decodeUpdates2(dst []Update, b []byte, maxCounters uint32) ([]Update, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, fmt.Errorf("cluster: updates2 frame missing entry count")
	}
	b = b[used:]
	if n > uint64(maxCounters) {
		return nil, fmt.Errorf("cluster: updates2 frame declares %d entries, layout has %d counters", n, maxCounters)
	}
	if n*2 > uint64(len(b)) { // every entry is ≥ 2 varint bytes; pre-allocation sanity bound
		return nil, fmt.Errorf("cluster: updates2 frame declares %d entries in %d bytes", n, len(b))
	}
	dst = slices.Grow(dst, int(n))
	id := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("cluster: updates2 frame truncated at entry %d", i)
		}
		b = b[used:]
		cnt, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("cluster: updates2 frame truncated at entry %d count", i)
		}
		b = b[used:]
		if i > 0 && delta == 0 {
			return nil, fmt.Errorf("cluster: updates2 frame ids not strictly ascending at entry %d", i)
		}
		// Bound the delta before adding: id < maxCounters and delta ≤
		// maxCounters cannot wrap uint64, so the range check below is
		// sound. An unbounded delta could wrap the accumulator back into
		// range and smuggle a non-ascending id past both checks.
		if delta > uint64(maxCounters) {
			return nil, fmt.Errorf("cluster: updates2 frame id delta %d out of range at entry %d", delta, i)
		}
		id += delta
		if id >= uint64(maxCounters) {
			return nil, fmt.Errorf("cluster: updates2 frame counter %d out of range [0,%d)", id, maxCounters)
		}
		if cnt > math.MaxInt64 {
			return nil, fmt.Errorf("cluster: updates2 frame count %d overflows", cnt)
		}
		dst = append(dst, Update{Counter: uint32(id), LocalCount: int64(cnt)})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("cluster: updates2 frame has %d trailing bytes", len(b))
	}
	return dst, nil
}

// encodeStructStats serializes a site's cumulative structure statistics into
// dst (reused), straight from the dense cell vector: uvarint siteEvents (the
// site's stream position), then the frameUpdates2 entry encoding over the
// nonzero StructLayout cells (entry count, then per entry the delta-encoded
// ascending cell id and the count). Counts must be non-negative.
func encodeStructStats(dst []byte, siteEvents uint64, counts []int64) []byte {
	nonzero := 0
	for _, c := range counts {
		if c != 0 {
			nonzero++
		}
	}
	dst = binary.AppendUvarint(dst[:0], siteEvents)
	dst = binary.AppendUvarint(dst, uint64(nonzero))
	prev := 0
	for id, c := range counts {
		if c != 0 {
			dst = binary.AppendUvarint(dst, uint64(id-prev)) // first entry: prev is 0, the delta is the id itself
			dst = binary.AppendUvarint(dst, uint64(c))
			prev = id
		}
	}
	return dst
}

// encodeStructUpdates is the frameStructStats payload over an explicit entry
// list sorted by strictly ascending cell id — a relay's dirty cells.
func encodeStructUpdates(siteEvents uint64, ups []Update) []byte {
	return append(binary.AppendUvarint(nil, siteEvents), encodeUpdates2(nil, ups)...)
}

// decodeStructStats parses a frameStructStats payload, returning the site's
// event count and dst with its cumulative cell counts appended. The
// entry section shares decodeUpdates2's validation: the declared entry
// count is length-checked against maxCells and the payload before any
// allocation, ids must be strictly ascending within the structure layout,
// and trailing bytes are rejected.
func decodeStructStats(dst []Update, b []byte, maxCells uint32) (uint64, []Update, error) {
	siteEvents, used := binary.Uvarint(b)
	if used <= 0 {
		return 0, nil, fmt.Errorf("cluster: struct-stats frame missing event count")
	}
	ups, err := decodeUpdates2(dst, b[used:], maxCells)
	if err != nil {
		return 0, nil, err
	}
	return siteEvents, ups, nil
}

// encodeStructDelta serializes a frameStructDelta payload into dst (reused):
// the base position, the site's stream position, then cum[c] − ref[c] for
// every cell c. ref is the vector the connection's previous struct frame
// carried, at position base; counts are monotone, so no increment is
// negative.
func encodeStructDelta(dst []byte, base, siteEvents uint64, cum, ref []int64) []byte {
	dst = binary.AppendUvarint(dst[:0], base)
	dst = binary.AppendUvarint(dst, siteEvents)
	for c, n := range cum {
		dst = binary.AppendUvarint(dst, uint64(n-ref[c]))
	}
	return dst
}

// decodeStructDelta parses a frameStructDelta payload against the
// connection's reference — ref, the cumulative vector its previous struct
// frame left, at stream position refAt — and returns the site's event count
// and dst with the rebuilt cumulative count ref[c] + increment appended for
// every cell c whose increment is nonzero. It validates the whole payload
// before returning and never writes ref: the base must be refAt, the stream
// position must not be behind it, the payload must hold exactly one
// increment per cell, and no increment may exceed the events between the two
// positions (an event adds one to one cell of every pair).
func decodeStructDelta(dst []Update, b []byte, ref []int64, refAt uint64) (uint64, []Update, error) {
	base, used := binary.Uvarint(b)
	if used <= 0 {
		return 0, nil, fmt.Errorf("cluster: struct-delta frame missing base position")
	}
	b = b[used:]
	siteEvents, used := binary.Uvarint(b)
	if used <= 0 {
		return 0, nil, fmt.Errorf("cluster: struct-delta frame missing event count")
	}
	b = b[used:]
	if base != refAt {
		return 0, nil, fmt.Errorf("cluster: struct-delta frame based at position %d, the connection's last struct frame is at %d", base, refAt)
	}
	if siteEvents < base {
		return 0, nil, fmt.Errorf("cluster: struct-delta frame moves back from position %d to %d", base, siteEvents)
	}
	span := siteEvents - base
	for c, r := range ref {
		// Increments are at most one cadence of events: almost always one byte.
		inc, n := uint64(0), 0
		if len(b) > 0 && b[0] < 0x80 {
			inc, n = uint64(b[0]), 1
		} else if inc, n = binary.Uvarint(b); n <= 0 {
			return 0, nil, fmt.Errorf("cluster: struct-delta frame truncated at cell %d of %d", c, len(ref))
		}
		b = b[n:]
		if inc > span || inc > uint64(math.MaxInt64-r) {
			return 0, nil, fmt.Errorf("cluster: struct-delta frame cell %d grows by %d over %d events", c, inc, span)
		}
		if inc != 0 {
			dst = append(dst, Update{Counter: uint32(c), LocalCount: r + int64(inc)})
		}
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("cluster: struct-delta frame has %d trailing bytes", len(b))
	}
	return siteEvents, dst, nil
}

func encodeDone(site uint32, events int64) []byte {
	var b [12]byte
	binary.LittleEndian.PutUint32(b[:4], site)
	binary.LittleEndian.PutUint64(b[4:], uint64(events))
	return b[:]
}

func decodeDone(b []byte) (uint32, int64, error) {
	if len(b) != 12 {
		return 0, 0, fmt.Errorf("cluster: done frame length %d, want 12", len(b))
	}
	return binary.LittleEndian.Uint32(b[:4]), int64(binary.LittleEndian.Uint64(b[4:])), nil
}

func encodeStats(s Stats) []byte {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(s.Frames))
	binary.LittleEndian.PutUint64(b[8:16], uint64(s.Updates))
	binary.LittleEndian.PutUint64(b[16:], uint64(s.Events))
	return b[:]
}

func decodeStats(b []byte) (Stats, error) {
	if len(b) != 24 {
		return Stats{}, fmt.Errorf("cluster: stats frame length %d, want 24", len(b))
	}
	return Stats{
		Frames:  int64(binary.LittleEndian.Uint64(b[:8])),
		Updates: int64(binary.LittleEndian.Uint64(b[8:16])),
		Events:  int64(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

// resumeReq is a decoded frameResume payload.
type resumeReq struct {
	// Site is the resuming site's id.
	Site uint32
	// Events is the number of stream events the site has processed so far.
	Events uint64
	// Flags is reserved (zero); a future extension can use it without a new
	// frame type because the decoder ignores unknown bits.
	Flags byte
}

func encodeResume(r resumeReq) []byte {
	var b [13]byte
	binary.LittleEndian.PutUint32(b[:4], r.Site)
	binary.LittleEndian.PutUint64(b[4:12], r.Events)
	b[12] = r.Flags
	return b[:]
}

func decodeResume(b []byte) (resumeReq, error) {
	if len(b) != 13 {
		return resumeReq{}, fmt.Errorf("cluster: resume frame length %d, want 13", len(b))
	}
	return resumeReq{
		Site:   binary.LittleEndian.Uint32(b[:4]),
		Events: binary.LittleEndian.Uint64(b[4:12]),
		Flags:  b[12],
	}, nil
}

// resumeAck is a decoded frameResumeAck payload.
type resumeAck struct {
	// Epoch is the coordinator's run epoch: 0 for the original process,
	// bumped by every checkpoint restore, so a resuming site can tell a
	// surviving coordinator from a restored one.
	Epoch uint64
	// SiteEvents is the event count the coordinator has recorded for the
	// site (nonzero only once its Done marker was accepted).
	SiteEvents uint64
	// Flags carries resumeRunComplete and resumeSiteDone.
	Flags byte
}

func encodeResumeAck(a resumeAck) []byte {
	var b [17]byte
	binary.LittleEndian.PutUint64(b[:8], a.Epoch)
	binary.LittleEndian.PutUint64(b[8:16], a.SiteEvents)
	b[16] = a.Flags
	return b[:]
}

func decodeResumeAck(b []byte) (resumeAck, error) {
	if len(b) != 17 {
		return resumeAck{}, fmt.Errorf("cluster: resume-ack frame length %d, want 17", len(b))
	}
	return resumeAck{
		Epoch:      binary.LittleEndian.Uint64(b[:8]),
		SiteEvents: binary.LittleEndian.Uint64(b[8:16]),
		Flags:      b[16],
	}, nil
}

func encodeHello(site uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], site)
	return b[:]
}

func decodeHello(b []byte) (uint32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("cluster: hello frame length %d, want 4", len(b))
	}
	return binary.LittleEndian.Uint32(b), nil
}

// encodeRelayWrapped serializes the shared shape of frameRelayJoin and
// frameRelayCtl: site id (u32), a kind byte (join kind going up, inner frame
// type going down) and the inner payload verbatim.
func encodeRelayWrapped(site uint32, kind byte, inner []byte) []byte {
	b := make([]byte, 5+len(inner))
	binary.LittleEndian.PutUint32(b[:4], site)
	b[4] = kind
	copy(b[5:], inner)
	return b
}

// decodeRelayWrapped parses a frameRelayJoin or frameRelayCtl payload. The
// returned inner slice aliases b.
func decodeRelayWrapped(b []byte) (site uint32, kind byte, inner []byte, err error) {
	if len(b) < 5 {
		return 0, 0, nil, fmt.Errorf("cluster: relay wrapped frame length %d, want >= 5", len(b))
	}
	return binary.LittleEndian.Uint32(b[:4]), b[4], b[5:], nil
}

// relayGroup is one site's folded payload inside a frameRelayUpdates or
// frameRelayStruct frame.
type relayGroup struct {
	// Site is the downstream site the payload belongs to. Relays fold but
	// never mix sites: the trailing-gap adjustment the coordinator applies is
	// nonlinear per site, so summing child counts across sites would change
	// estimates — per-site vectors travel intact through every tier.
	Site uint32
	// Payload is the site's folded state as a frameUpdates2 or
	// frameStructStats payload.
	Payload []byte
}

// encodeRelayGroups serializes grouped per-site payloads into dst (reused):
// uvarint group count, then per group uvarint site id, uvarint payload
// length, payload bytes.
func encodeRelayGroups(dst []byte, groups []relayGroup) []byte {
	dst = dst[:0]
	var tmp [binary.MaxVarintLen64]byte
	dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(groups)))]...)
	for _, g := range groups {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(g.Site))]...)
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], uint64(len(g.Payload)))]...)
		dst = append(dst, g.Payload...)
	}
	return dst
}

// decodeRelayGroups parses a frameRelayUpdates or frameRelayStruct payload
// into dst (reused), validating before any allocation that the declared
// group count fits the site count (a relay ships at most one group per
// downstream site) and that every declared payload length fits both the
// remaining bytes and the inner payload cap. Group payloads alias b; the
// inner payloads are validated by their own decoders when folded.
func decodeRelayGroups(dst []relayGroup, b []byte, maxSites, innerCap uint32) ([]relayGroup, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, fmt.Errorf("cluster: relay frame missing group count")
	}
	b = b[used:]
	if n > uint64(maxSites) {
		return nil, fmt.Errorf("cluster: relay frame declares %d groups, run has %d sites", n, maxSites)
	}
	if n*2 > uint64(len(b)) { // every group is ≥ 2 varint bytes; pre-allocation sanity bound
		return nil, fmt.Errorf("cluster: relay frame declares %d groups in %d bytes", n, len(b))
	}
	if cap(dst) < int(n) {
		dst = make([]relayGroup, 0, n)
	} else {
		dst = dst[:0]
	}
	for i := uint64(0); i < n; i++ {
		site, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("cluster: relay frame truncated at group %d", i)
		}
		b = b[used:]
		if site >= uint64(maxSites) {
			return nil, fmt.Errorf("cluster: relay frame site %d out of range [0,%d)", site, maxSites)
		}
		plen, used := binary.Uvarint(b)
		if used <= 0 {
			return nil, fmt.Errorf("cluster: relay frame truncated at group %d length", i)
		}
		b = b[used:]
		if plen > uint64(innerCap) {
			return nil, fmt.Errorf("cluster: relay frame group %d payload %d exceeds cap %d", i, plen, innerCap)
		}
		if plen > uint64(len(b)) {
			return nil, fmt.Errorf("cluster: relay frame group %d payload declares %d bytes, has %d", i, plen, len(b))
		}
		dst = append(dst, relayGroup{Site: uint32(site), Payload: b[:plen]})
		b = b[plen:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("cluster: relay frame has %d trailing bytes", len(b))
	}
	return dst, nil
}

// relayPayloadCap is the largest well-formed grouped relay payload for a run
// of numSites sites whose inner payloads are bounded by innerCap — the
// grouped mirror of updatesPayloadCap, used to widen a relay-carrying
// connection's read limit.
func relayPayloadCap(numSites, innerCap uint32) uint32 {
	return clampFrame(uint64(binary.MaxVarintLen32) +
		uint64(numSites)*(2*binary.MaxVarintLen32+uint64(innerCap)))
}
