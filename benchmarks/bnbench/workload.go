package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/serve"
	"distbayes/internal/stream"
)

const (
	epsilon = 0.1
	// envelopeShare is δ: the share of test queries allowed outside
	// [e^-ε, e^ε]·P̂mle before the excess counts as failed operations.
	envelopeShare = 0.05
	// updateBatch is how many events one Tracker.UpdateEvents call carries.
	updateBatch = 256
	// The paced pump of serve-ingest: pumpBatch events are due every
	// pumpPeriod, about a third of one core on munin.
	pumpBatch  = 12
	pumpPeriod = 2 * time.Millisecond
	// pumpMinShare is the share of its schedule the pump must deliver, unless
	// it is no more than pumpSlack batches behind when stopped.
	pumpMinShare = 0.98
	pumpSlack    = 5
	// requestTemplates is the number of distinct pre-encoded requests a query
	// round cycles through.
	requestTemplates = 64
)

// sizes fixes the work of one run. Work is a count of events and queries,
// never a span of time, so that two runs do the same thing. Rounds are short,
// a tenth of a second where the work can be cut that fine, because a round is
// the unit the calibration kernel corrects.
type sizes struct {
	ingestRounds int // rounds of the ingest phase
	ingestEvents int // events per ingest round
	warmEvents   int // events of the discarded warm-up round
	pool         int // pre-sampled events the tracker workloads cycle through
	queryRounds  int // rounds of the query phase
	queries      int // HTTP requests per query round
	testQueries  int // test queries compared with the oracle
	setups       int // times set-up is run; setup_s is their median
	calibRuns    int // runs of each calibration kernel per calibration
}

// tailRounds consecutive query rounds are pooled for one p99, so that each
// has 20000 samples and 200 lie beyond it.
const tailRounds = 10

// spec is one workload. The four specs differ in which layers do the ingest
// work and in whether writes run beside the reads.
type spec struct {
	name, why string
	net       string
	sizes     sizes
	// tracker workloads
	tracker *core.Config
	pump    bool
	// cluster workloads
	cluster *cluster.Config
	learned bool
}

// specs returns the four workloads sized for a run of the given nominal
// length. The size of a round never changes, so the counters stay out of
// warm-up and a percentile keeps its samples; a shorter run has fewer rounds.
func specs(seconds int) []spec {
	rounds := func(at20, least int) int { return max(at20*seconds/20, least) }
	query := func(at20 int) int { return max(at20*seconds/20/tailRounds, 1) * tailRounds }
	// size fills in what the four workloads share.
	size := func(sz sizes) sizes {
		sz.queries, sz.testQueries, sz.setups, sz.calibRuns = 2000, 1000, 3, 4
		return sz
	}
	batched := batchedCluster()
	withStruct := batched
	withStruct.StructBatchEvents = 256
	return []spec{
		{
			name: "tracker-ingest", net: "alarm",
			why:     "core and counter do all the ingest work and cluster none; on this small model fixed HTTP/JSON cost dominates a query",
			tracker: &core.Config{Strategy: core.NonUniform, Eps: epsilon, Sites: 30},
			sizes:   size(sizes{ingestRounds: rounds(40, 4), ingestEvents: 1 << 17, warmEvents: 1 << 19, pool: 1 << 17, queryRounds: query(50)}),
		},
		{
			name: "cluster-batched", net: "alarm",
			why:     "site loop, v2 frame encode/decode and the max-merge fold do the work over loopback TCP, core/counter banks none; counters are out of warm-up",
			cluster: &batched,
			sizes:   size(sizes{ingestRounds: rounds(10, 2), ingestEvents: 1 << 20, warmEvents: 1 << 19, queryRounds: query(50)}),
		},
		{
			name: "cluster-struct", net: "alarm",
			why:     "same cluster layer plus the O(n^2) pair path, decay.WindowVec and chowliu re-learns; serves the hot-swapped learned tree",
			cluster: &withStruct, learned: true,
			sizes: size(sizes{ingestRounds: rounds(8, 2), ingestEvents: 500000, warmEvents: 1 << 18, queryRounds: query(50)}),
		},
		{
			name: "serve-ingest", net: "munin",
			why:     "writes beside reads on ~80k cells: snapshot rebuilds, stripe-lock hand-off and the serve refresh slot, which the quiet workloads bypass",
			tracker: &core.Config{Strategy: core.NonUniform, Eps: epsilon, Sites: 4, Shards: 4}, pump: true,
			sizes: size(sizes{ingestRounds: rounds(20, 4), ingestEvents: 1 << 12, warmEvents: 1 << 12, pool: 1 << 14, queryRounds: query(20)}),
		},
	}
}

// batchedCluster is the cluster configuration of cluster-batched, which the
// cluster probes share: two sites, two coordinator stripes, protocol v2.
func batchedCluster() cluster.Config {
	return cluster.Config{
		NetName: "alarm", CPTSeed: netgen.DefaultCPTOptions().Seed, Strategy: core.NonUniform,
		Eps: epsilon, Sites: 2, Shards: 2, SiteBatchEvents: 128,
	}
}

// eps is the workload's approximation budget ε.
func (sp *spec) eps() float64 {
	if sp.tracker != nil {
		return sp.tracker.Eps
	}
	return sp.cluster.Eps
}

// seedFor derives the seed of one input from the run's seed. Streams are
// spaced 256 apart because a site's sampler is seeded stream seed + site id:
// no two sites of any two rounds, nor of neighbouring run seeds, then share
// a sampler.
func seedFor(seed uint64, part int) uint64 { return seed<<20 + uint64(part)<<8 }

// Parts of the seeded input. The stream of ingest round r is part r, so the
// other parts start well above any round count.
const (
	partPool = 1000 + iota
	partAssign
	partCounters
	partRequests
)

// testQuerySeed seeds the test queries. Like the models they are part of the
// fixed evaluation set, not of the seeded input: which closures the thousand
// queries happen to cover moved err_vs_mle_mean more than the counters did.
const testQuerySeed = 0xC0DE

// instance is one set-up workload: the system under test plus its inputs.
type instance struct {
	sp      *spec
	seed    uint64
	model   *bn.Model
	queries []stream.Query

	tr   *core.Tracker
	pool []core.Event
	off  int // next pool event

	co                   *cluster.Coordinator
	updates, frames, evs int64 // summed over the cluster rounds
	lastEvents           int64
}

// setUp builds everything a run needs before timing starts and runs the
// warm-up round on an instance that is thrown away.
func setUp(sp *spec, seed uint64, ln *lane) (*instance, error) {
	sz := sp.sizes
	in := &instance{sp: sp, seed: seed}
	var err error

	h := ln.begin("netgen.ModelByName", 0)
	in.model, err = netgen.ModelByName(sp.net)
	ln.end(h)
	if err != nil {
		return nil, err
	}
	h = ln.begin("stream.GenQueries", 0)
	in.queries, err = stream.GenQueries(in.model, stream.QueryOptions{
		Count: sz.testQueries, MinProb: 0.01, Seed: testQuerySeed,
	})
	ln.end(h)
	if err != nil {
		return nil, err
	}

	if sp.tracker != nil {
		h = ln.begin("stream.NextEvents", 0)
		training := stream.NewTraining(in.model,
			stream.NewUniformAssigner(sp.tracker.Sites, seedFor(seed, partAssign)), seedFor(seed, partPool))
		in.pool = training.NextEvents(make([]core.Event, 0, sz.pool), sz.pool)
		ln.end(h)

		warm, err := in.newTracker(ln)
		if err != nil {
			return nil, err
		}
		h = ln.begin("bench.warmup", 0)
		feed(warm, in.pool, 0, sz.warmEvents, updateBatch, ln)
		ln.end(h)
		if in.tr, err = in.newTracker(ln); err != nil {
			return nil, err
		}
		return in, nil
	}

	h = ln.begin("bench.warmup", 0)
	cfg := *sp.cluster
	cfg.Events, cfg.StreamSeed = sz.warmEvents, seedFor(seed, sz.ingestRounds)
	_, _, err = cluster.RunLocal(cfg)
	ln.end(h)
	if err != nil {
		return nil, fmt.Errorf("warm-up cluster run: %w", err)
	}
	return in, nil
}

func (in *instance) newTracker(ln *lane) (*core.Tracker, error) {
	cfg := *in.sp.tracker
	cfg.Seed = seedFor(in.seed, partCounters)
	h := ln.begin("core.NewTracker", 0)
	defer ln.end(h)
	return core.NewTracker(in.model.Network(), cfg)
}

// feed sends n events to tr, cycling through pool from offset off, batch
// events per call. It returns the new offset.
func feed(tr *core.Tracker, pool []core.Event, off, n, batch int, ln *lane) int {
	for n > 0 {
		m := min(batch, n, len(pool)-off)
		h := ln.begin("core.UpdateEvents", 0)
		tr.UpdateEvents(pool[off : off+m])
		ln.end(h)
		n -= m
		if off += m; off == len(pool) {
			off = 0
		}
	}
	return off
}

// ingestRound runs round r of the ingest phase. A tracker round feeds the
// next events of the pool to the one tracker; a cluster round is an
// independent run over loopback TCP.
func (in *instance) ingestRound(r int, ln *lane) error {
	n := in.sp.sizes.ingestEvents
	if in.tr != nil {
		in.off = feed(in.tr, in.pool, in.off, n, updateBatch, ln)
		return nil
	}
	cfg := *in.sp.cluster
	cfg.Events, cfg.StreamSeed = n, seedFor(in.seed, r)
	h := ln.begin("cluster.RunLocal", int64(r))
	res, co, err := cluster.RunLocal(cfg)
	ln.end(h)
	if err != nil {
		return fmt.Errorf("cluster round %d: %w", r, err)
	}
	in.co = co
	in.updates += res.Stats.Updates
	in.frames += res.Stats.Frames
	in.evs += res.Stats.Events
	in.lastEvents = res.Stats.Events
	return nil
}

// counts returns the counter-update messages, the network frames and the
// events of the ingest phase. In process a message is its own frame.
func (in *instance) counts() (msgs, frames, events int64) {
	if in.tr != nil {
		m := in.tr.Messages().Total()
		return m, m, in.tr.Events()
	}
	return in.updates, in.frames, in.evs
}

// estimate is the system's P̃ for a test query.
func (in *instance) estimate(set, x []int) float64 {
	if in.tr != nil {
		return in.tr.QuerySubsetProb(set, x)
	}
	snap := in.co.AcquireSnapshot()
	defer snap.Release()
	return inProcess(snap, &request{kind: kindSubsetProb, set: set, x: x}).p
}

// tally returns the oracle's count of everything the system under test has
// been sent when ingest round r ends: the pool events fed so far to a tracker,
// the regenerated stream of round r's own run for a cluster.
func (in *instance) tally(r int) *oracle {
	sz := in.sp.sizes
	if in.tr == nil {
		return tallyCluster(in.model, in.sp.cluster.Sites, sz.ingestEvents, seedFor(in.seed, r))
	}
	return tallyPool(in.model.Network(), in.pool, (r+1)*sz.ingestEvents)
}

// conserved checks against the oracle's tally o that every event sent so far
// was counted exactly once.
func (in *instance) conserved(o *oracle) error {
	if in.tr != nil {
		return checkTrackerCounts(in.tr, o)
	}
	if in.lastEvents != o.events {
		return fmt.Errorf("coordinator counted %d events, the oracle regenerated %d", in.lastEvents, o.events)
	}
	return nil
}

func (in *instance) source() serve.ModelSource {
	switch {
	case in.tr != nil:
		return serve.NewTrackerSource(in.tr)
	case in.sp.learned:
		return serve.NewLearnedCoordinatorSource(in.co)
	default:
		return serve.NewCoordinatorSource(in.co)
	}
}

// result is what one run of one workload measured.
type result struct {
	metrics           map[string]float64
	attempted, failed int64
	notes             []string // why operations failed, and sample counts
	layers            []layerTime
}

func (res *result) fail(n int64, format string, args ...any) {
	res.failed += n
	if len(res.notes) < 20 {
		res.notes = append(res.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

// run executes one workload. With a tracer, rounds alternate between tracing
// off and on, so that one run gives the spans and the cost of recording them.
func run(sp *spec, seed uint64, tr *tracer) (*result, error) {
	sz := sp.sizes
	res := &result{metrics: map[string]float64{}}
	cal, err := newCalibrator(sz.calibRuns)
	if err != nil {
		return nil, err
	}
	defer cal.close()
	ln := tr.lane("main")
	traced := func(r int) {
		if tr != nil {
			tr.on.Store(r%2 == 1)
		}
	}

	// Set-up, several times over: a single set-up of a second is too short to
	// time on a shared box. All but the last are discarded.
	var in *instance
	setups, err := cal.rounds(sz.setups, func(s int) (err error) {
		traced(s)
		h := ln.begin("bench.setup", int64(s))
		in, err = setUp(sp, seed, ln)
		ln.end(h)
		traced(0)
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	// Ingest phase. errs collects, checkpoint by checkpoint, the mean error of
	// the test queries against the oracle.
	var errs []float64
	outsideEnvelope := 0
	ingest, err := cal.rounds(sz.ingestRounds, func(r int) error {
		traced(r)
		h := ln.begin("bench.ingest_round", int64(r))
		err := in.ingestRound(r, ln)
		ln.end(h)
		traced(0)
		return err
	}, func(r int) error {
		// Untimed: compare the estimates so far with the oracle's tally of
		// the same events.
		o := in.tally(r)
		meanErr, outside := errorVsMLE(o, in.queries, sp.eps(), in.estimate)
		errs = append(errs, meanErr)
		outsideEnvelope += outside
		res.attempted += int64(len(in.queries)) + 1
		if err := in.conserved(o); err != nil {
			res.fail(1, "conservation after round %d: %v", r, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	perEvent := 1 / float64(sz.ingestEvents)
	res.metrics["ingest_events_per_s"] = 1 / (median(ingest.seconds()) * perEvent)
	res.metrics["ingest_cpu_us_per_event"] = 1e6 * median(ingest.cpuSeconds()) * perEvent

	// Counts and checks, read before any query or pump touches the system.
	msgs, frames, counted := in.counts()
	res.metrics["msgs_per_event"] = float64(msgs) / float64(counted)
	res.metrics["frames_per_event"] = float64(frames) / float64(counted)
	res.metrics["err_vs_mle_mean"] = mean(errs)
	if compared := len(errs) * len(in.queries); outsideEnvelope > int(envelopeShare*float64(compared)) {
		allowed := int(envelopeShare * float64(compared))
		res.fail(int64(outsideEnvelope-allowed), "%d of %d test-query comparisons outside the e^±%.1f envelope of the MLE, %d allowed",
			outsideEnvelope, compared, sp.eps(), allowed)
	}
	if want := int64(sz.ingestRounds * sz.ingestEvents); counted != want {
		res.fail(1, "conservation: %d events counted over the ingest phase, %d sent", counted, want)
	}
	res.attempted++

	// Bridge from ingest to queries: the server, the requests, the
	// connection and a discarded pass over the requests. Its time is set-up.
	var (
		src     serve.ModelSource
		srv     *serve.Server
		cl      *client
		reqs    []request
		want    []answer
		version uint64
	)
	bridge, err := cal.rounds(1, func(int) (err error) {
		h := ln.begin("serve.New+Start", 0)
		src = in.source()
		if srv, err = serve.New(serve.Config{Source: src}); err == nil {
			err = srv.Start("127.0.0.1:0")
		}
		ln.end(h)
		if err != nil {
			return fmt.Errorf("start query server: %w", err)
		}
		snap, err := src.AcquireSnapshot()
		if err != nil {
			return fmt.Errorf("acquire served snapshot: %w", err)
		}
		reqs = buildRequests(snap.Network(), srv.Addr(), in.queries, requestTemplates, seedFor(seed, partRequests))
		snap.Release()
		if cl, err = dial(srv.Addr()); err != nil {
			return err
		}
		want, version, err = verifyPass(cl, src, reqs, res)
		return err
	}, nil)
	if srv != nil {
		defer shutdown(srv)
	}
	if cl != nil {
		defer cl.close()
	}
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(setups.seconds()) + bridge.seconds()[0]

	// Query phase: one closed-loop client; on serve-ingest the paced pump
	// writes beside it.
	var pm *pump
	if sp.pump {
		pm = startPump(in.tr, in.pool, cal.last(), tr.lane("pump"))
		defer pm.stop() // on an error path; stop is idempotent
	}
	lats := make([][]time.Duration, sz.queryRounds)
	query, err := cal.rounds(sz.queryRounds, func(r int) error {
		if pm != nil {
			pm.setPace(cal.last())
		}
		traced(r)
		h := ln.begin("bench.query_round", int64(r))
		defer func() {
			ln.end(h)
			traced(0)
		}()
		lat := make([]time.Duration, sz.queries)
		lats[r] = lat
		for q := range lat {
			at := (r*sz.queries + q) % len(reqs)
			req := &reqs[at]
			t := time.Now()
			h := ln.begin("serve.http", int64(r*sz.queries+q))
			status, body, err := cl.do(req.raw)
			ln.end(h)
			lat[q] = time.Since(t)
			if err != nil {
				return err
			}
			if status != 200 {
				res.fail(1, "%s answered %d: %s", kindPath[req.kind], status, body)
				continue
			}
			rep, err := parseReply(req.kind, body)
			switch {
			case err != nil:
				res.fail(1, "%s: %v", kindPath[req.kind], err)
			case pm != nil && rep.version < version:
				res.fail(1, "snapshot version went back from %d to %d", version, rep.version)
			case pm == nil && (rep.version != version || !rep.answer.equal(want[at])):
				res.fail(1, "%s answered %+v at version %d, in process %+v at version %d",
					kindPath[req.kind], rep.answer, rep.version, want[at], version)
			}
			if pm != nil {
				version = max(version, rep.version)
			}
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res.attempted += int64(sz.queryRounds * sz.queries)
	p50 := make([]float64, sz.queryRounds)
	var p99 []float64
	var pooled []float64
	for r, lat := range lats {
		corrected := make([]float64, len(lat))
		for q, d := range lat {
			corrected[q] = micros(d) / query.slow[r]
		}
		slices.Sort(corrected)
		p50[r] = quantile(corrected, 0.50)
		if pooled = append(pooled, corrected...); (r+1)%tailRounds == 0 {
			slices.Sort(pooled)
			p99 = append(p99, quantile(pooled, 0.99))
			pooled = pooled[:0]
		}
	}
	res.metrics["query_qps"] = float64(sz.queries) / median(query.seconds())
	res.metrics["query_p50_us"] = median(p50)
	res.metrics["query_p99_us"] = median(p99)

	if pm != nil {
		due, done, lagP99 := pm.stop()
		res.attempted++
		// A run of a few dozen batches may be stopped a few batches into a
		// stall, which says nothing about keeping up.
		if due-done > pumpSlack && float64(done) < pumpMinShare*float64(due) {
			res.fail(1, "pump delivered %d of %d scheduled batches", done, due)
		}
		res.notes = append(res.notes, fmt.Sprintf("pump delivered %d of %d batches of %d events, lag p99 %.3f ms", done, due, pumpBatch, millis(lagP99)))
		// The server may hold a snapshot from before the last batch for
		// MaxSnapshotAge; let it age out, then check the answers once more.
		time.Sleep(2 * serve.DefaultMaxSnapshotAge)
		if _, _, err := verifyPass(cl, src, reqs, res); err != nil {
			return nil, err
		}
	}

	// Live heap: inputs and the calibration table dropped, system and server
	// kept.
	in.pool, in.queries = nil, nil
	cal.table = nil
	reqs, want, lats, pooled = nil, nil, nil, nil
	res.metrics["live_heap_mb"] = liveHeapMiB()
	runtime.KeepAlive(in)
	runtime.KeepAlive(srv)

	res.notes = append(res.notes,
		fmt.Sprintf("ingest: %d rounds of %d events, estimates compared with the oracle after each; query: %d rounds of %d requests, p50 per round, p99 per %d rounds (%d samples, %d beyond it)",
			sz.ingestRounds, sz.ingestEvents, sz.queryRounds, sz.queries, tailRounds, tailRounds*sz.queries, tailRounds*sz.queries/100),
		fmt.Sprintf("uncorrected medians: set-up %.3f s, ingest %.0f events/s, query %.0f requests/s",
			median(setups.rawSeconds()), float64(sz.ingestEvents)/median(ingest.rawSeconds()), float64(sz.queries)/median(query.rawSeconds())),
		cal.note())

	if tr != nil {
		onI, offI := ingest.split()
		onQ, offQ := query.split()
		on := onI*float64(sz.ingestRounds) + onQ*float64(sz.queryRounds)
		off := offI*float64(sz.ingestRounds) + offQ*float64(sz.queryRounds)
		res.metrics["trace.overhead_pct"] = 100 * (on/off - 1)
		res.metrics["trace.spans"] = float64(tr.spanCount())
		res.layers = tr.layerTimes()
		for _, lt := range res.layers {
			if lt.name == "bench.ingest_round" {
				share := 100 * (1 - lt.self.Seconds()/lt.total.Seconds())
				res.metrics["trace.ingest_layers_pct"] = share
				res.attempted++
				if sp.name == "tracker-ingest" && share < 90 {
					res.fail(1, "layer self-times cover %.1f%% of the ingest wall time, want within 10%%", share)
				}
			}
		}
	}
	return res, nil
}

// verifyPass sends every request once while nothing writes, and checks each
// HTTP answer bit for bit against the answer computed in process from the
// source's snapshot of the same version. It returns those answers.
func verifyPass(cl *client, src serve.ModelSource, reqs []request, res *result) ([]answer, uint64, error) {
	snap, err := src.AcquireSnapshot()
	if err != nil {
		return nil, 0, fmt.Errorf("acquire snapshot to verify against: %w", err)
	}
	defer snap.Release()
	want := make([]answer, len(reqs))
	for i := range reqs {
		req := &reqs[i]
		want[i] = inProcess(snap, req)
		status, body, err := cl.do(req.raw)
		if err != nil {
			return nil, 0, err
		}
		res.attempted++
		if status != 200 {
			res.fail(1, "%s answered %d: %s", kindPath[req.kind], status, body)
			continue
		}
		rep, err := parseReply(req.kind, body)
		if err != nil {
			res.fail(1, "%s: %v", kindPath[req.kind], err)
		} else if rep.version != snap.Version() || !rep.answer.equal(want[i]) {
			res.fail(1, "%s answered %+v at version %d, in process %+v at version %d",
				kindPath[req.kind], rep.answer, rep.version, want[i], snap.Version())
		}
	}
	return want, snap.Version(), nil
}

func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the process is about to exit; a slow drain changes nothing measured
}

// pump is the open-loop writer of serve-ingest: a batch is due every period
// whether or not the previous one is done, and each batch is timed from when
// it was due, so a stall shows as lag on every batch it delays. The period is
// pumpPeriod stretched by the box's current slowdown, so that the pump asks
// for the same share of the machine, a third of a hardware thread, however
// fast the machine is running; at a fixed rate a slowed machine would spend
// a larger share on writes and the read tail would grow faster than the
// slowdown that the calibration divides by.
type pump struct {
	quit chan struct{}
	done chan struct{}
	pace atomic.Uint64 // math.Float64bits of the slowdown the period is stretched by
	// stopped is touched only by the goroutine that started the pump.
	stopped bool
	// written by the pump goroutine, read after done closes
	delivered int
	behind    int // batches due and not delivered when the pump was stopped
	lag       []time.Duration
}

func startPump(tr *core.Tracker, pool []core.Event, slowdown float64, ln *lane) *pump {
	p := &pump{quit: make(chan struct{}), done: make(chan struct{})}
	p.setPace(slowdown)
	go func() {
		defer close(p.done)
		off := 0
		for due := time.Now(); ; {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			period := time.Duration(float64(pumpPeriod) * math.Float64frombits(p.pace.Load()))
			select {
			case <-p.quit:
				// Batches that fell due before this one and were never sent.
				p.behind = int(time.Since(due) / period)
				return
			default:
			}
			off = feed(tr, pool, off, pumpBatch, pumpBatch, ln)
			p.lag = append(p.lag, time.Since(due))
			p.delivered++
			due = due.Add(period)
		}
	}()
	return p
}

func (p *pump) setPace(slowdown float64) { p.pace.Store(math.Float64bits(slowdown)) }

// stop ends the pump and returns how many batches were due while it ran, how
// many it delivered, and the 99th percentile of their lag.
func (p *pump) stop() (due, done int, lagP99 time.Duration) {
	if !p.stopped {
		p.stopped = true
		close(p.quit)
		<-p.done
		slices.Sort(p.lag)
	}
	if len(p.lag) > 0 {
		lagP99 = quantile(p.lag, 0.99)
	}
	return p.delivered + p.behind, p.delivered, lagP99
}
