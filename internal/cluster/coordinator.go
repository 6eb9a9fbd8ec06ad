package cluster

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
)

// Config parameterizes a cluster run.
type Config struct {
	// NetName is the netgen registry name of the network to learn.
	NetName string
	// CPTSeed seeds the shared ground-truth parameters.
	CPTSeed uint64
	// Strategy selects the tracking algorithm.
	Strategy core.Strategy
	// Eps, Delta are the approximation budget.
	Eps, Delta float64
	// Sites is k.
	Sites int
	// Events is the total stream length, split across sites (evenly unless
	// HotSiteShare routes a skewed share to site 0).
	Events int
	// StreamSeed seeds the per-site event streams.
	StreamSeed uint64
	// LatencyMicros adds an artificial per-frame delay at sites, emulating
	// WAN round-trips on a loopback deployment.
	LatencyMicros uint32
	// Shards is ignored.
	//
	// Deprecated: it selected a lock-striped fold of the reported-count
	// matrix that measured no faster than one lock and is gone; the name
	// remains because the frozen repository benchmark (benchmarks/) sets it.
	Shards int
	// SiteBatchEvents is the sites' report window: each site coalesces its
	// report decisions and ships one frame every SiteBatchEvents events
	// instead of one frame per triggering event. 0 is the per-event
	// protocol (a window of one). Batching delays a report by at most one
	// window, which the (ε, δ) envelope absorbs exactly like the
	// trailing-gap the report probability already models; see the package
	// comment.
	SiteBatchEvents int
	// HotSiteShare, when positive, routes that fraction of the stream to
	// site 0 and splits the rest evenly — the skewed-routing regime of
	// deviation #1: the one-way counter (counter.OneWayKind) estimates
	// global counts as k·local, which a hot site breaks. 0 routes evenly.
	// See the counter package comment for what the kind assumes and the
	// package comment for the measured imprecision under skew.
	HotSiteShare float64
	// LiveQueryMicros, when positive, makes RunLocal drive a mid-run query
	// mix against the coordinator: one QueryProb on a random assignment
	// every LiveQueryMicros microseconds (every eighth one an
	// EstimatedModel), for as long as the sites stream. The answers come
	// from the live snapshot path — the paper's query-at-any-time model.
	LiveQueryMicros uint32
	// CheckpointPath, when set together with CheckpointEveryFrames, makes
	// the coordinator write a crash-consistent checkpoint of its run state
	// (reported-count matrix, stats, site membership — the DBCLUS01 format,
	// see WriteCheckpoint) to this file every CheckpointEveryFrames frames,
	// atomically and durably (see WriteCheckpointFile). A restarted
	// coordinator restores it with RestoreCheckpointFile and the sites
	// re-resume against the restored state.
	CheckpointPath string
	// CheckpointEveryFrames is the checkpoint cadence in received frames
	// (deterministic, unlike wall clock). 0 disables periodic checkpoints.
	CheckpointEveryFrames int64
	// StructBatchEvents, when positive, turns on online distributed
	// structure learning: every site additionally accumulates cumulative
	// pairwise co-occurrence counts over all variable pairs and ships them
	// as one struct frame every StructBatchEvents events — cumulative first
	// on each connection, increments after (append-only protocol-v4 and v6
	// extensions; coordinators and sites that predate them interoperate with
	// learning off). The coordinator windows the aggregated
	// statistics, re-runs Chow–Liu on the windowed MI matrix at every
	// window-block rotation, and hot-swaps the published learned structure
	// when the tree changes (see AcquireLearnedSnapshot). 0 keeps structure
	// learning off — the default, and the only mode the bit-compat goldens
	// cover, since learning adds frames to the stream.
	StructBatchEvents int
	// StructWindowEvents is the sliding-window width (in events) for the
	// structure-learning MI statistics; stale co-occurrence mass ages out a
	// block at a time, which is what lets the learned tree track drift.
	// 0 defaults to a quarter of Events.
	StructWindowEvents int64
	// StructWindowBlocks is the window's block granularity (≥ 2); 0
	// defaults to 6.
	StructWindowBlocks int
	// DriftNetName, when set, makes every site switch its generating model
	// mid-stream: events before the site's drift point are drawn from
	// NetName's model, events after from DriftNetName's model (seeded by
	// DriftCPTSeed). The drift network must have the same variable names and
	// cardinalities as NetName — only structure and parameters change. The
	// switch point is a pure function of a site's absolute stream position,
	// so crash/resume replay reproduces the same stream.
	DriftNetName string
	// DriftAfter is the fraction of each site's stream after which the
	// drift model takes over; 0 defaults to 0.5 when DriftNetName is set.
	DriftAfter float64
	// DriftCPTSeed seeds the drift model's ground-truth parameters.
	DriftCPTSeed uint64
}

// DefaultReconnectGrace bounds how long a mid-run site may stay disconnected
// before the coordinator fails the run: a dropped connection starts a grace
// timer, a reconnect (protocol-v3 resume or a fresh hello from a restarted
// site process) cancels it. Connection loss within the grace window is
// invisible to the run result — the site replays its decided counts on
// resume and the max-merge fold makes the replay idempotent.
const DefaultReconnectGrace = 5 * time.Second

// ErrCoordinatorClosed is returned by Serve when Close is called before the
// run completes — the abrupt-stop path a chaos test's coordinator kill takes.
var ErrCoordinatorClosed = errors.New("cluster: coordinator closed")

func (c Config) validate() error {
	if c.NetName == "" {
		return fmt.Errorf("cluster: empty network name")
	}
	if err := checkRunShape(c.Sites, c.Strategy, c.Eps); err != nil {
		return err
	}
	if c.Events < 1 {
		return fmt.Errorf("cluster: events = %d, want >= 1", c.Events)
	}
	if c.Shards < 0 {
		return fmt.Errorf("cluster: shards = %d, want >= 0", c.Shards)
	}
	if c.SiteBatchEvents < 0 {
		return fmt.Errorf("cluster: site batch cadence = %d, want >= 0", c.SiteBatchEvents)
	}
	if c.HotSiteShare < 0 || c.HotSiteShare >= 1 {
		return fmt.Errorf("cluster: hot-site share = %v, want [0, 1)", c.HotSiteShare)
	}
	if c.CheckpointEveryFrames < 0 {
		return fmt.Errorf("cluster: checkpoint cadence = %d, want >= 0", c.CheckpointEveryFrames)
	}
	if c.CheckpointEveryFrames > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("cluster: checkpoint cadence set without a checkpoint path")
	}
	if c.StructBatchEvents < 0 {
		return fmt.Errorf("cluster: struct batch cadence = %d, want >= 0", c.StructBatchEvents)
	}
	if c.StructWindowEvents < 0 {
		return fmt.Errorf("cluster: struct window = %d events, want >= 0", c.StructWindowEvents)
	}
	if c.StructWindowBlocks < 0 {
		return fmt.Errorf("cluster: struct window blocks = %d, want >= 0", c.StructWindowBlocks)
	}
	if c.DriftAfter < 0 || c.DriftAfter >= 1 {
		return fmt.Errorf("cluster: drift-after fraction = %v, want [0, 1)", c.DriftAfter)
	}
	if c.DriftNetName == "" && (c.DriftAfter != 0 || c.DriftCPTSeed != 0) {
		return fmt.Errorf("cluster: drift parameters set without a drift network name")
	}
	return nil
}

// checkRunShape is the one rule for the shape of a run, which both the
// coordinator's Config and a site's StartConfig must pass: at least one
// site, a known strategy, and 0 < eps < 1 unless the strategy is exact. A
// site checks the start frame it was sent, because a zero site count or a
// NaN eps would send its report thresholds (counter.OneWayExactUntil) into
// a loop of about 2^63 steps, and an infinite eps would never report.
func checkRunShape(sites int, s core.Strategy, eps float64) error {
	if sites < 1 {
		return fmt.Errorf("cluster: sites = %d, want >= 1", sites)
	}
	if s < core.ExactMLE || s > core.NaiveBayes {
		return fmt.Errorf("cluster: unknown strategy %v", s)
	}
	if s != core.ExactMLE && !(eps > 0 && eps < 1) {
		return fmt.Errorf("cluster: eps = %v, want 0 < eps < 1", eps)
	}
	return nil
}

// structWindow returns the effective structure-learning window parameters.
func (c Config) structWindow() (events int64, blocks int) {
	events, blocks = c.StructWindowEvents, c.StructWindowBlocks
	if blocks == 0 {
		blocks = 6
	}
	if events == 0 {
		events = int64(c.Events) / 4
	}
	if events < int64(blocks) {
		events = int64(blocks)
	}
	return events, blocks
}

// eventsFor returns the number of stream events site id generates. With
// HotSiteShare = 0 the stream splits as evenly as possible; otherwise site 0
// takes ⌈share·Events⌉ and the rest splits evenly across the other sites.
func (c Config) eventsFor(id uint32) int {
	events, k, i := c.Events, c.Sites, int(id)
	if c.HotSiteShare > 0 && k > 1 {
		hot := min(int(math.Ceil(c.HotSiteShare*float64(events))), events)
		if i == 0 {
			return hot
		}
		events, k, i = events-hot, k-1, i-1
	}
	if i < events%k {
		return events/k + 1
	}
	return events / k
}

// Result summarizes a completed cluster run.
type Result struct {
	Stats Stats
	// Runtime is the wall-clock time from the first to the last frame
	// received by the coordinator (the paper's runtime metric).
	Runtime time.Duration
	// Throughput is events per second over Runtime.
	Throughput float64
	// LiveQueries is the number of mid-run queries RunLocal's query mix
	// issued against the coordinator while the sites streamed (0 unless
	// Config.LiveQueryMicros is set).
	LiveQueries int64
}

// siteSlot is the coordinator's supervision record for one site id: the
// current connection (nil while the site is disconnected), a generation
// counter so a stale grace timer can tell it has been superseded by a
// reconnect, and the site's completion state. Guarded by Coordinator.mu.
type siteSlot struct {
	// peer is where the site's control frames go: its live direct
	// connection, or the relay link it is routed through (whose death
	// detaches every site it carried); nil while disconnected.
	peer *peer
	// gen is bumped on every (re)connect; grace timers capture it and stand
	// down when the slot has moved on.
	gen uint64
	// done records that the site's Done marker was accepted (exactly once —
	// a replayed Done after a resume is deduplicated here).
	done bool
	// events is the site's reported event count, recorded at Done.
	events int64
}

// Coordinator is the query-answering hub of the monitoring system. Unlike
// the historical implementation, which materialized estimates once after
// Serve returned, queries are valid at any time — during a live run they are
// served from a version-validated snapshot of the reported-count matrix, the
// paper's query-at-any-time model.
//
// The coordinator is the root of the relay tree: its connections — sites and
// relays — are served by the tier every Relay runs (tier.serve), and it is
// the tierNode that decides membership events and replies to them, where a
// relay forwards them up, and that estimates from the folded rows and the
// structure engine, where a relay ships them on.
//
// The connection layer is supervised and elastic: sites may connect at any
// time after Serve starts (a late join simply starts streaming later), a
// dropped connection does not fail the run — the site has
// DefaultReconnectGrace to reconnect with a protocol-v3 resume (or a fresh
// hello after a process restart), replaying its decided counts into the
// idempotent max-merge fold — and a coordinator killed mid-run restarts from
// its last periodic checkpoint (RestoreCheckpointFile) with the sites
// re-resuming against the restored state.
type Coordinator struct {
	cfg    Config
	net    *bn.Network
	layout *counterLayout
	ln     net.Listener

	// mu guards slots, doneCount and reported — the one lock of the
	// receiving side.
	mu        sync.Mutex
	slots     []siteSlot
	doneCount int
	// reported[site][counter] is the site's last reported local count;
	// version counts the batches folded into it and is read without the lock
	// by the snapshot validator.
	reported [][]int64
	version  atomic.Uint64

	// snap is the last published estimate snapshot (nil until the first
	// query).
	snap atomic.Pointer[core.Snapshot]

	frames  atomic.Int64
	updates atomic.Int64
	events  atomic.Int64
	firstNs atomic.Int64
	lastNs  atomic.Int64

	// epoch is the run epoch: 0 for a fresh coordinator, bumped by every
	// checkpoint restore. Sites learn it from the resume ack.
	epoch uint64

	// finishCh closes exactly once when the run ends; finishErr (written
	// before the close) is nil on success, ErrCoordinatorClosed on an
	// abrupt Close, or the first fatal protocol/supervision error.
	finishOnce sync.Once
	finishCh   chan struct{}
	finishErr  error

	// down is the connection tier: every accepted connection is served by
	// down.serve, with this coordinator as its node.
	down tier

	serveOnce sync.Once
	closeOnce sync.Once
	closed    atomic.Bool

	// CrashAfterFrames, when set before Serve, makes the coordinator Close
	// itself the moment its frame counter reaches the given value — the
	// chaos tests' deterministic coordinator kill, the counterpart of
	// Site.CrashAfterEvents (frame counts do not depend on timing, so the
	// kill point reproduces exactly). Zero disables the hook.
	CrashAfterFrames int64

	// ckptEvery/ckptCh drive the periodic checkpoint writer; ckptErr keeps
	// the last asynchronous write failure (checkpointing is best-effort and
	// must not fail the run). ckptDone is non-nil once Serve has started the
	// writer and closes when it exits; Serve and Close join on it.
	ckptEvery int64
	ckptCh    chan struct{}
	ckptDone  chan struct{}
	ckptErr   atomic.Pointer[error]

	// structs is the structure-learning overlay (nil unless
	// Config.StructBatchEvents > 0); see structure.go. It is deliberately
	// excluded from checkpoints — a restored coordinator relearns from the
	// sites' cumulative resume replays.
	structs *structEngine
	// drift is the resolved drift network (nil unless Config.DriftNetName is
	// set), validated at construction to share NetName's variable shape.
	drift *bn.Network
}

// NewCoordinator validates cfg, regenerates the shared network, and starts
// listening on addr (use "127.0.0.1:0" for tests). Call Addr for the bound
// address and Serve to run the protocol.
func NewCoordinator(cfg Config, addr string) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	netw, err := netgen.ByName(cfg.NetName)
	if err != nil {
		return nil, err
	}
	layout, err := newCounterLayout(netw, cfg.Strategy, cfg.Eps)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	co := &Coordinator{
		cfg:       cfg,
		net:       netw,
		layout:    layout,
		ln:        ln,
		slots:     make([]siteSlot, cfg.Sites),
		finishCh:  make(chan struct{}),
		ckptEvery: cfg.CheckpointEveryFrames,
		ckptCh:    make(chan struct{}, 1),
	}
	co.reported = make([][]int64, cfg.Sites)
	for i := range co.reported {
		co.reported[i] = make([]int64, layout.NumCounters())
	}
	if cfg.StructBatchEvents > 0 {
		winEvents, winBlocks := cfg.structWindow()
		co.structs, err = newStructEngine(netw, cfg.Sites, winEvents, winBlocks)
		if err != nil {
			ln.Close()
			return nil, err
		}
	}
	if cfg.DriftNetName != "" {
		drift, err := netgen.ByName(cfg.DriftNetName)
		if err != nil {
			ln.Close()
			return nil, err
		}
		if err := netw.SameVariables(drift); err != nil {
			ln.Close()
			return nil, fmt.Errorf("cluster: drift network %q incompatible with %q: %w",
				cfg.DriftNetName, cfg.NetName, err)
		}
		co.drift = drift
	}
	var cells uint32
	if co.structs != nil {
		cells = co.structs.layout.Cells()
	}
	// A relay derives its fold layout from the same deterministic base config
	// a site would get.
	co.down.init(co, "", co.startConfigFor(0), layout.NumCounters(), cells)
	return co, nil
}

// Addr returns the listening address.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Close releases the listener and every accepted connection — direct site
// connections, relay uplinks and connections still handshaking. Safe to call
// at any time, from any goroutine but a connection reader's, and more than
// once: called after Serve returned it is a plain resource release; called
// while Serve is running it is an abrupt stop — Serve returns
// ErrCoordinatorClosed without distributing stats, the chaos tests' stand-in
// for kill -9 (no final checkpoint is written; only the periodic cadence ones
// survive, as with a real crash). Close returns only after the checkpoint
// writer, the accept loop and every connection reader have exited: no
// checkpoint file is created or renamed, and no goroutine of this
// coordinator runs, once it has returned.
func (co *Coordinator) Close() error {
	co.stop()
	co.down.conns.wg.Wait()
	return nil
}

// stop is Close without the join on the connection readers, for the one
// caller that is a connection reader: the CrashAfterFrames hook.
func (co *Coordinator) stop() {
	co.closeOnce.Do(func() {
		co.closed.Store(true)
		co.ln.Close()
		co.down.conns.closeAll()
		co.finish(ErrCoordinatorClosed)
	})
	co.joinCheckpointer()
}

// joinCheckpointer waits for the checkpoint writer, which the caller has
// stopped by ending the run. Passing through serveOnce orders the read of
// ckptDone after Serve's start-up — or keeps a Serve that comes after Close
// from starting a writer at all.
func (co *Coordinator) joinCheckpointer() {
	co.serveOnce.Do(func() {})
	if co.ckptDone != nil {
		<-co.ckptDone
	}
}

// finish ends the run exactly once.
func (co *Coordinator) finish(err error) {
	co.finishOnce.Do(func() {
		co.finishErr = err
		close(co.finishCh)
	})
}

// finished reports whether the run has ended and with which error.
func (co *Coordinator) finished() (bool, error) {
	select {
	case <-co.finishCh:
		return true, co.finishErr
	default:
		return false, nil
	}
}

// Err reports whether the coordinator can still answer queries: nil while
// the run is live and after it completed cleanly, the terminal error after
// Close or a fatal protocol failure. Serving layers poll it to tell a
// finished-but-queryable coordinator from a dead one.
func (co *Coordinator) Err() error {
	if over, err := co.finished(); over {
		return err
	}
	return nil
}

// Serve runs the training protocol to completion: it supervises site
// connections (accepting joins, resumes and rejoins at any time), folds
// their reports into the reported matrix, and once every site's Done marker
// has arrived distributes closing stats and returns the run result. Queries
// may be issued concurrently with Serve at any time.
//
// Serve does not fail on connection loss: a disconnected site has
// DefaultReconnectGrace to come back (resume or restart) before the run is
// failed. Fatal errors remain fatal: a malformed handshake, an out-of-range
// site id, a listener failure, or Close. Serve may be called once per
// Coordinator; a coordinator restored from a checkpoint resumes the run
// where the checkpoint left it (sites already recorded done stay done). With
// periodic checkpointing on, Serve returns only after the checkpoint writer
// has exited — on a clean finish the complete-run checkpoint is on disk.
func (co *Coordinator) Serve() (Result, error) {
	co.serveOnce.Do(func() {
		co.down.conns.wg.Add(1)
		go co.acceptLoop()
		if co.ckptEvery > 0 {
			co.ckptDone = make(chan struct{})
			go co.checkpointLoop()
		}
	})
	// A coordinator restored from a post-run checkpoint has nothing left to
	// serve; complete immediately (stragglers fetch stats via acceptLoop).
	co.mu.Lock()
	if co.doneCount == len(co.slots) {
		co.mu.Unlock()
		co.finish(nil)
	} else {
		co.mu.Unlock()
	}

	<-co.finishCh
	co.joinCheckpointer()
	if co.finishErr != nil {
		return Result{}, co.finishErr
	}

	stats := co.LiveStats()
	payload := encodeStats(stats.Stats)
	co.mu.Lock()
	peers := make([]*peer, len(co.slots))
	for i := range co.slots {
		peers[i] = co.slots[i].peer
	}
	co.mu.Unlock()
	for site, p := range peers {
		if p != nil {
			// Best effort: a site that lost its connection right at the end
			// re-resumes and collects stats from the acceptLoop instead.
			_ = p.writeCtl(uint32(site), frameStats, payload)
		}
	}

	runtime := time.Duration(co.lastNs.Load() - co.firstNs.Load())
	if runtime < 0 {
		runtime = 0
	}
	res := Result{Stats: stats.Stats, Runtime: runtime}
	if runtime > 0 {
		res.Throughput = float64(stats.Events) / runtime.Seconds()
	}
	return res, nil
}

// acceptLoop admits connections until the listener closes: site joins
// (hello), process-restart rejoins (hello for an already-seen id),
// connection-level resumes and relay uplinks. It outlives Serve so a site
// that missed the closing stats can still reconnect and collect them.
func (co *Coordinator) acceptLoop() {
	defer co.down.conns.wg.Done()
	if err := co.down.conns.acceptLoop(co.ln, co.down.serve); !co.closed.Load() {
		co.finish(fmt.Errorf("cluster: accept: %w", err))
	}
}

// badOpening fails the run: a malformed handshake or an out-of-range site id
// is a fatal protocol error at the root (tierNode).
func (co *Coordinator) badOpening(err error) { co.finish(err) }

// errRunOver drops a site connection whose join a finished run cannot answer.
var errRunOver = errors.New("cluster: run is over")

// member decides one membership event (tierNode): a join attaches the site to
// p and is answered through it — on the site's own connection, or wrapped in
// frameRelayCtl down the relay link it arrived on.
func (co *Coordinator) member(p *peer, site uint32, kind byte, inner []byte) error {
	over, ferr := co.finished()
	if over && (kind == relayJoinHello || kind == relayJoinResume && ferr != nil) {
		// A join the finished run has no answer for — nothing is left to
		// start, and only a clean run has closing stats to resume for: a
		// site's own connection is closed (its dial loop gives up); a relay
		// link stays up for the sites it still carries.
		if p.isRelay {
			return nil
		}
		return errRunOver
	}
	switch kind {
	case relayJoinHello:
		// Fresh join or a restarted site process rejoining from scratch: it
		// gets the same deterministic StartConfig and replays its stream from
		// event 0. Its reported row is deliberately kept — counts are
		// monotone and the replayed reports max-merge idempotently.
		co.attach(site, p)
		return p.writeCtl(site, frameStart, encodeStart(co.startConfigFor(site)))
	case relayJoinResume:
		if over {
			return co.replyRunComplete(p, site)
		}
		return p.writeCtl(site, frameResumeAck, encodeResumeAck(co.attach(site, p)))
	case relayJoinReattach:
		// The relay's upstream connection was re-established with this site
		// still attached below it; no reply — re-routing the slot cancels
		// the grace timer.
		if !over {
			co.attach(site, p)
		}
		return nil
	case relayJoinDone:
		_, events, err := decodeDone(inner)
		if err != nil {
			return err
		}
		co.handleDone(site, events)
		return nil
	case relayJoinDetach:
		co.detach(site, p)
		return nil
	default:
		return fmt.Errorf("cluster: join kind %d for site %d", kind, site)
	}
}

// startConfigFor builds the deterministic StartConfig for one site id.
func (co *Coordinator) startConfigFor(id uint32) StartConfig {
	start := StartConfig{
		NetName:       co.cfg.NetName,
		CPTSeed:       co.cfg.CPTSeed,
		Strategy:      uint8(co.cfg.Strategy),
		Eps:           co.cfg.Eps,
		Delta:         co.cfg.Delta,
		Sites:         uint32(co.cfg.Sites),
		Site:          id,
		Events:        uint64(co.cfg.eventsFor(id)),
		StreamSeed:    co.cfg.StreamSeed,
		LatencyMicros: co.cfg.LatencyMicros,
		BatchEvents:   uint32(co.cfg.SiteBatchEvents),
	}
	start.StructBatchEvents = uint32(co.cfg.StructBatchEvents)
	// Every connection reader of this build decodes frameStructDelta.
	start.StructDelta = co.structs != nil
	if co.drift != nil {
		frac := co.cfg.DriftAfter
		if frac == 0 {
			frac = 0.5
		}
		start.DriftNetName = co.cfg.DriftNetName
		start.DriftCPTSeed = co.cfg.DriftCPTSeed
		start.DriftAtEvent = uint64(frac * float64(co.cfg.eventsFor(id)))
	}
	return start
}

// detach marks a site disconnected — its own connection died, the relay it
// is routed through reported it gone, or that relay link died — if p is still
// its current peer, and arms the reconnect-grace timer.
func (co *Coordinator) detach(site uint32, p *peer) {
	co.mu.Lock()
	slot := &co.slots[site]
	if slot.peer != p {
		co.mu.Unlock()
		return // a newer connection has already taken over
	}
	slot.peer = nil
	gen, done := slot.gen, slot.done
	co.mu.Unlock()
	co.armGrace(site, gen, done)
}

// armGrace starts the reconnect-grace timer for a site that just lost its
// connection (direct or relay-routed): the run fails unless the site is back
// — reconnected directly, or re-forwarded by a relay — before it fires.
func (co *Coordinator) armGrace(id uint32, gen uint64, done bool) {
	if done {
		return // nothing more expected from this site
	}
	if over, _ := co.finished(); over {
		return
	}
	time.AfterFunc(DefaultReconnectGrace, func() {
		co.mu.Lock()
		slot := &co.slots[id]
		expired := slot.gen == gen && slot.peer == nil && !slot.done
		co.mu.Unlock()
		if expired {
			co.finish(fmt.Errorf("cluster: site %d disconnected and did not reconnect within %v", id, DefaultReconnectGrace))
		}
	})
}

// siteEvents returns the recorded event count for a site (0 until Done).
func (co *Coordinator) siteEvents(id uint32) int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.slots[id].events
}

// foldCounts folds one site's decoded reports (ids already validated against
// the layout) into its reported row (tierNode). Reports are monotone local
// counts; the maximum is kept to stay robust to reordering within a stream —
// the same property that makes resume replays and duplicated frames
// idempotent.
func (co *Coordinator) foldCounts(site uint32, ups []Update) {
	co.mu.Lock()
	maxMerge(co.reported[site], ups, nil)
	co.version.Add(1)
	co.mu.Unlock()
	co.updates.Add(int64(len(ups)))
}

// foldStruct folds one site's struct-stats batch into the structure engine
// (tierNode).
func (co *Coordinator) foldStruct(site uint32, siteEvents uint64, ups []Update) {
	co.structs.apply(site, siteEvents, ups)
}

// noteFrame records one received frame: the run clock, the frame counter,
// the chaos crash hook and the checkpoint cadence (tierNode). A relay frame
// carrying a whole tier's folded windows counts once, which is exactly the
// root-load reduction the aggregation tree buys.
func (co *Coordinator) noteFrame() {
	now := time.Now().UnixNano()
	co.firstNs.CompareAndSwap(0, now)
	co.lastNs.Store(now)
	n := co.frames.Add(1)
	if co.CrashAfterFrames > 0 && n == co.CrashAfterFrames {
		// Synchronous: the kill must win the race against a finishing
		// run, or a seeded kill point near the end becomes flaky.
		co.stop()
	}
	if co.ckptEvery > 0 && n%co.ckptEvery == 0 {
		select {
		case co.ckptCh <- struct{}{}:
		default: // a checkpoint is already pending; cadence resumes next tick
		}
	}
}

// handleDone records a site's Done marker exactly once (replays and
// relay-forwarded duplicates deduplicate here) and finishes the run when
// every site has reported.
func (co *Coordinator) handleDone(site uint32, events int64) {
	co.mu.Lock()
	slot := &co.slots[site]
	allDone := false
	if !slot.done {
		slot.done = true
		slot.events = events
		co.events.Add(events)
		co.doneCount++
		allDone = co.doneCount == len(co.slots)
	}
	co.mu.Unlock()
	if allDone {
		co.finish(nil)
	}
}

// AcquireSnapshot returns the current estimates as the one read handle of the
// repo (core.Snapshot): the factor rows est[pair]/est[par] of every CPD cell
// (0 where the parent configuration has no mass, so a joint query over it is
// 0 and its model row normalizes to uniform), at the fold version they were
// computed at. It is rebuilt only when a batch was folded since the cached one
// was built, so repeated queries against a quiescent coordinator share one
// snapshot with no lock traffic, and queries racing ingestion rebuild one at a
// time under the lock. Valid at any time: mid-run it reflects the reports
// received so far — the paper's query-at-any-time model — and after Serve
// returns it is the final estimate. Estimate snapshots are garbage-collected,
// so Release is a no-op.
func (co *Coordinator) AcquireSnapshot() *core.Snapshot {
	if s := co.snap.Load(); s != nil && s.Version() == co.version.Load() {
		return s
	}
	est := make([]float64, co.layout.NumCounters())
	rows := make([][]float64, co.net.Len())
	cells := make([]float64, co.net.NumCells()) // one backing array for every row
	co.mu.Lock()
	defer co.mu.Unlock()
	if s := co.snap.Load(); s != nil && s.Version() == co.version.Load() {
		return s
	}
	co.estimatesLocked(est)
	for i := range rows {
		j, k := co.net.Card(i), co.net.ParentCard(i)
		rows[i], cells = cells[:j*k:j*k], cells[j*k:]
		for pidx := 0; pidx < k; pidx++ {
			if den := est[co.layout.ParID(i, pidx)]; den > 0 {
				for v := 0; v < j; v++ {
					rows[i][pidx*j+v] = est[co.layout.PairID(i, v, pidx)] / den
				}
			}
		}
	}
	s := core.NewSnapshot(co.net, rows, co.version.Load(), time.Now(), 0)
	co.snap.Store(s)
	return s
}

// estimatesLocked adds every counter's estimate into est (zeroed, one cell
// per counter id): the sum over sites, 0..k-1 from zero, of
// counter.OneWayEstimate of the last reported local count. It walks
// site-major over the layout's equal-eps sections: one pass per site row keeps
// the reads contiguous, and the per-id eps load drops out of the inner loop —
// the coordinator-side sibling of counter.Bank.EstimateRange. Callers hold mu.
func (co *Coordinator) estimatesLocked(est []float64) {
	k, sqrtK := co.cfg.Sites, math.Sqrt(float64(co.cfg.Sites))
	for site := 0; site < k; site++ {
		row := co.reported[site]
		for _, sec := range co.layout.sections {
			for id := sec.lo; id < sec.hi; id++ {
				est[id] += counter.OneWayEstimate(k, sqrtK, sec.eps, row[id])
			}
		}
	}
}

// QueryProb answers a joint-probability query from the tracked counters
// (Algorithm 3 over the cluster state) on the current snapshot.
func (co *Coordinator) QueryProb(x []int) float64 { return co.AcquireSnapshot().QueryProb(x) }

// EstimatedModel materializes the tracked parameters into a normalized
// bn.Model, built from the same snapshot QueryProb reads and cached with it
// (repeated calls between reports are free). Rows whose parent configuration
// has no mass become uniform.
func (co *Coordinator) EstimatedModel() (*bn.Model, error) { return co.AcquireSnapshot().Model() }

// RunStats is LiveStats' full point-in-time view of a run: the protocol
// counters plus — when the structure-learning overlay is on — its fold
// counters (struct frames folded, Chow-Liu relearns, hot swaps, current
// structure epoch).
type RunStats struct {
	Stats
	// Struct holds the structure-learning counters; zero value when
	// Config.StructBatchEvents is 0.
	Struct StructStats
}

// LiveStats returns a point-in-time snapshot of the run counters — frames,
// update entries and completed events seen so far, plus the
// structure-learning counters when the overlay is on. Safe to call while
// Serve is running; Events counts only sites that already sent their Done
// marker.
func (co *Coordinator) LiveStats() RunStats {
	rs := RunStats{Stats: Stats{
		Frames:  co.frames.Load(),
		Updates: co.updates.Load(),
		Events:  co.events.Load(),
	}}
	if co.structs != nil {
		rs.Struct = co.StructLearnStats()
	}
	return rs
}

// Network returns the shared network structure.
func (co *Coordinator) Network() *bn.Network { return co.net }

// StructLearning reports whether the structure-learning overlay is on for
// this run (Config.StructBatchEvents > 0).
func (co *Coordinator) StructLearning() bool { return co.structs != nil }

// attach makes p — the site's own connection, or the relay link it arrived
// through — the site's current peer, superseding any previous connection
// (latest wins: a superseded direct connection is closed and its reader
// stands down when its detach finds the slot moved on). It returns the resume
// ack describing the slot's completion state.
func (co *Coordinator) attach(site uint32, p *peer) (ack resumeAck) {
	co.mu.Lock()
	defer co.mu.Unlock()
	slot := &co.slots[site]
	if old := slot.peer; old != nil && !old.isRelay {
		old.raw.Close()
	}
	slot.peer = p
	slot.gen++
	ack = resumeAck{Epoch: co.epoch, SiteEvents: uint64(slot.events)}
	if slot.done {
		ack.Flags |= resumeSiteDone
	}
	return ack
}

// replyRunComplete answers a resume that arrived after the run completed:
// the ack, then the closing stats, so a site that crashed at the finish line
// still collects them.
func (co *Coordinator) replyRunComplete(p *peer, site uint32) error {
	ack := resumeAck{Epoch: co.epoch, SiteEvents: uint64(co.siteEvents(site)), Flags: resumeRunComplete | resumeSiteDone}
	if err := p.writeCtl(site, frameResumeAck, encodeResumeAck(ack)); err != nil {
		return err
	}
	return p.writeCtl(site, frameStats, encodeStats(co.LiveStats().Stats))
}
