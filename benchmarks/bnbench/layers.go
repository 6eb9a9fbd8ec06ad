package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/chowliu"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/decay"
	"distbayes/internal/netgen"
	"distbayes/internal/serve"
	"distbayes/internal/stream"
)

// The per-layer metrics are probes: short fixed-work measurements of one
// layer's public functions, called from here and nowhere else, the same on
// every workload. They say which layer moved when an end-to-end metric does.
// The layers are the repository's packages.
var layerMetrics = []metricDef{
	// bn, netgen, stream: inputs. They move setup_s.
	{"bn.sample_ns_per_event.alarm", "ns"},
	{"bn.sample_ns_per_event.munin", "ns"},
	{"netgen.model_build_s.munin", "s"},
	{"stream.gen_queries_ms", "ms"},
	// counter: the per-cell protocol under core's ingest and snapshot paths.
	{"counter.inc_ns.hyz", "ns"},
	{"counter.inc_ns.exact", "ns"},
	{"counter.merge_ns_per_cell", "ns"},
	{"counter.estimate_range_ns_per_cell", "ns"},
	// core: the in-process tracker.
	{"core.new_tracker_ms.alarm", "ms"},
	{"core.new_tracker_ms.munin", "ms"},
	{"core.update_ns_per_event.alarm", "ns"},
	{"core.update_us_per_event.munin", "us"},
	{"core.seq_p1_events_per_s", "1/s"},
	{"core.buffered_p2_events_per_s", "1/s"},
	{"core.striped_p2_events_per_s", "1/s"},
	{"core.flush_deltas_us", "us"},
	{"core.snapshot_rebuild_us.alarm", "us"},
	{"core.snapshot_rebuild_us.munin", "us"},
	{"core.queryprob_warm_ns", "ns"},
	{"core.queryprob_cold_ns", "ns"},
	{"core.classify_ns", "ns"},
	{"core.estimated_model_cold_us", "us"},
	{"core.msgs_per_event.exactmle", "count"},
	{"core.msg_reduction_x", "ratio"},
	// cluster: sites, wire protocol, coordinator, relays.
	{"cluster.handshake_ms", "ms"},
	{"cluster.updates_per_frame", "count"},
	{"cluster.wire_bytes_per_event", "B"},
	{"cluster.p1_events_per_s", "1/s"},
	{"cluster.scaling_2v1", "ratio"},
	{"cluster.per_event_events_per_s", "1/s"},
	{"cluster.per_event_frames_per_event", "count"},
	{"cluster.relay_b2_events_per_s", "1/s"},
	{"cluster.relay_root_frames_per_event", "count"},
	{"cluster.snapshot_rebuild_us", "us"},
	{"cluster.queryprob_warm_ns", "ns"},
	{"cluster.estimated_model_us", "us"},
	// structure learning beside the flat protocol.
	{"cluster.struct_overhead_x", "ratio"},
	{"cluster.struct_frames_per_event", "count"},
	{"cluster.struct_epochs", "count"},
	{"chowliu.tree_from_mi_us", "us"},
	{"decay.windowvec_add_ns", "ns"},
	// serve: the HTTP front end.
	{"serve.handler_us_p50.queryprob", "us"},
	{"serve.handler_us_p50.subsetprob", "us"},
	{"serve.handler_us_p50.classify", "us"},
	{"serve.transport_us_p50", "us"},
	{"serve.allocs_per_query", "count"},
	{"serve.model_get_ms", "ms"},
	{"serve.model_json_bytes", "B"},
	{"serve.refreshes_per_s", "1/s"},
	{"serve.snapshot_age_ms_p50", "ms"},
	{"serve.shed", "count"},
	{"serve.deadline_exceeded", "count"},
	// the benchmark's own load generator.
	{"gen.pump_lag_ms_p99", "ms"},
	{"gen.client_busy_pct", "%"},
}

// Probe sizes. They are small so that a traced run fits the time a run may
// take, and fixed so that two runs measure the same thing.
const (
	probeAlarmPool   = 1 << 15
	probeAlarmEvents = 1 << 18
	probeMuninPool   = 1 << 11
	probeClusterEv   = 200000
	probePerEventEv  = 40000
	probeQueries     = 4000
)

type prober struct {
	seed uint64
	m    map[string]float64

	alarm, munin *bn.Model
	alarmPool    []core.Event
	muninPool    []core.Event
	queries      []stream.Query
	alarmTr      *core.Tracker // sequential, loaded with probeAlarmEvents
	muninTr      *core.Tracker // 4 stripes, loaded with the munin pool
	batchedRate  float64       // cluster, 2 sites batched, 2 processors
	rebuilds     []float64     // first snapshot of each finished coordinator
	models       []float64     // first EstimatedModel of each
	lastCo       *cluster.Coordinator
}

// probeLayers measures every layer metric and adds it to res.
func probeLayers(seed uint64, res *result) error {
	p := &prober{seed: seed, m: res.metrics}
	for _, step := range []func() error{p.inputs, p.counters, p.core, p.cluster, p.structure, p.serveQuiet, p.serveUnderIngest} {
		if err := step(); err != nil {
			return err
		}
		runtime.GC() // a probe's garbage is not the next probe's problem
	}
	return nil
}

// timed returns the median over reps of the seconds fn takes.
func timed(reps int, fn func()) float64 {
	t := make([]float64, reps)
	for i := range t {
		t0 := time.Now()
		fn()
		t[i] = time.Since(t0).Seconds()
	}
	return median(t)
}

func (p *prober) inputs() error {
	var err error
	if p.alarm, err = netgen.ModelByName("alarm"); err != nil {
		return err
	}
	p.m["netgen.model_build_s.munin"] = timed(1, func() { p.munin, err = netgen.ModelByName("munin") })
	if err != nil {
		return err
	}
	sample := func(model *bn.Model, n int) float64 {
		s := model.NewSampler(seedFor(p.seed, partPool))
		x := make([]int, model.Network().Len())
		return 1e9 * timed(3, func() {
			for i := 0; i < n; i++ {
				s.Sample(x)
			}
		}) / float64(n)
	}
	p.m["bn.sample_ns_per_event.alarm"] = sample(p.alarm, 100000)
	p.m["bn.sample_ns_per_event.munin"] = sample(p.munin, 2000)
	p.m["stream.gen_queries_ms"] = 1e3 * timed(3, func() {
		p.queries, err = stream.GenQueries(p.alarm, stream.QueryOptions{Count: 1000, MinProb: 0.01, Seed: testQuerySeed})
	})
	if err != nil {
		return err
	}
	pool := func(model *bn.Model, sites, n int) []core.Event {
		tr := stream.NewTraining(model, stream.NewUniformAssigner(sites, seedFor(p.seed, partAssign)), seedFor(p.seed, partPool))
		return tr.NextEvents(make([]core.Event, 0, n), n)
	}
	p.alarmPool = pool(p.alarm, 30, probeAlarmPool)
	p.muninPool = pool(p.munin, 4, probeMuninPool)
	return nil
}

func (p *prober) counters() error {
	const cells, k, incs = 256, 30, 1 << 21
	inc := func(kind counter.Kind) (float64, error) {
		var m counter.Metrics
		b, err := counter.NewBank(kind, cells, k, 0.005, 0, &m, bn.NewRNG(p.seed))
		if err != nil {
			return 0, err
		}
		return 1e9 * timed(1, func() {
			for i := 0; i < incs; i++ {
				b.Inc(i&(cells-1), i%k)
			}
		}) / incs, nil
	}
	var err error
	if p.m["counter.inc_ns.hyz"], err = inc(counter.HYZKind); err != nil {
		return err
	}
	if p.m["counter.inc_ns.exact"], err = inc(counter.ExactKind); err != nil {
		return err
	}
	// Merge and EstimateRange at the scale of a large bank: 16384 cells over
	// 4 sites, every (cell, site) run carrying a few increments.
	const mcells, mk = 1 << 14, 4
	var m counter.Metrics
	b, err := counter.NewBank(counter.HYZKind, mcells, mk, 0.005, 0, &m, bn.NewRNG(p.seed))
	if err != nil {
		return err
	}
	delta := make([]int64, mcells*mk)
	for i := range delta {
		delta[i] = int64(1 + i%5)
	}
	p.m["counter.merge_ns_per_cell"] = 1e9 * timed(15, func() { b.Merge(delta) }) / mcells
	dst := make([]float64, mcells)
	p.m["counter.estimate_range_ns_per_cell"] = 1e9 * timed(101, func() { b.EstimateRange(0, mcells, dst) }) / mcells
	return nil
}

// newTracker builds a tracker with the benchmark's ε and seed; a zero
// Strategy in cfg means NonUniform, which every workload uses.
func (p *prober) newTracker(model *bn.Model, cfg core.Config, exact bool) (*core.Tracker, error) {
	cfg.Strategy, cfg.Eps, cfg.Seed = core.NonUniform, epsilon, seedFor(p.seed, partCounters)
	if exact {
		cfg.Strategy = core.ExactMLE
	}
	return core.NewTracker(model.Network(), cfg)
}

func (p *prober) core() error {
	var err error
	seq := core.Config{Sites: 30}
	p.m["core.new_tracker_ms.alarm"] = 1e3 * timed(9, func() { p.alarmTr, err = p.newTracker(p.alarm, seq, false) })
	if err != nil {
		return err
	}
	striped4 := core.Config{Sites: 4, Shards: 4}
	p.m["core.new_tracker_ms.munin"] = 1e3 * timed(3, func() { p.muninTr, err = p.newTracker(p.munin, striped4, false) })
	if err != nil {
		return err
	}

	// Sequential reference mode, one goroutine, on one processor and on two.
	sec := timed(1, func() { feed(p.alarmTr, p.alarmPool, 0, probeAlarmEvents, updateBatch, nil) })
	p.m["core.update_ns_per_event.alarm"] = 1e9 * sec / probeAlarmEvents
	nonUniformMsgs := p.alarmTr.Messages().Total()
	prev := runtime.GOMAXPROCS(1)
	tr, err := p.newTracker(p.alarm, seq, false)
	if err == nil {
		p.m["core.seq_p1_events_per_s"] = probeAlarmEvents / timed(1, func() { feed(tr, p.alarmPool, 0, probeAlarmEvents, updateBatch, nil) })
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	sec = timed(1, func() { feed(p.muninTr, p.muninPool, 0, len(p.muninPool), updateBatch, nil) })
	p.m["core.update_us_per_event.munin"] = 1e6 * sec / float64(len(p.muninPool))

	// The two concurrent modes, two goroutines on two processors, each
	// feeding half the events: lock stripes against private delta buffers.
	two := func(cfg core.Config) (float64, error) {
		tr, err := p.newTracker(p.alarm, cfg, false)
		if err != nil {
			return 0, err
		}
		sec := timed(1, func() {
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					half := p.alarmPool[g*len(p.alarmPool)/2 : (g+1)*len(p.alarmPool)/2]
					if !cfg.DeltaBuffered {
						feed(tr, half, 0, probeAlarmEvents/2, updateBatch, nil)
						return
					}
					buf := tr.NewDeltaBuffer()
					defer buf.Release()
					for n, off := probeAlarmEvents/2, 0; n > 0; n -= updateBatch {
						buf.AddEvents(half[off : off+updateBatch])
						if off += updateBatch; off == len(half) {
							off = 0
						}
					}
					buf.Flush()
				}(g)
			}
			wg.Wait()
		})
		if got := tr.Events(); got != probeAlarmEvents {
			return 0, fmt.Errorf("concurrent tracker probe counted %d events, sent %d", got, probeAlarmEvents)
		}
		return probeAlarmEvents / sec, nil
	}
	if p.m["core.striped_p2_events_per_s"], err = two(core.Config{Sites: 30, Shards: 2}); err != nil {
		return err
	}
	if p.m["core.buffered_p2_events_per_s"], err = two(core.Config{Sites: 30, Shards: 2, DeltaBuffered: true}); err != nil {
		return err
	}

	// One publish of a delta buffer holding 1024 events.
	buffered, err := p.newTracker(p.alarm, core.Config{Sites: 30, DeltaBuffered: true, DeltaFlushEvents: 1 << 20}, false)
	if err != nil {
		return err
	}
	buf := buffered.NewDeltaBuffer()
	flush := make([]float64, 31)
	for i := range flush {
		buf.AddEvents(p.alarmPool[i*1024 : (i+1)*1024])
		flush[i] = 1e6 * timed(1, buf.Flush)
	}
	buf.Release()
	p.m["core.flush_deltas_us"] = median(flush)

	// Snapshot rebuild: one update makes the cached snapshot stale, the next
	// acquire rebuilds the stripes that moved (all of them: an event touches
	// every variable).
	rebuild := func(tr *core.Tracker, pool []core.Event, reps int) float64 {
		t := make([]float64, reps)
		for i := range t {
			ev := pool[i%len(pool)]
			tr.Update(ev.Site, ev.X)
			t[i] = 1e6 * timed(1, func() { tr.AcquireSnapshot().Release() })
		}
		return median(t)
	}
	p.m["core.snapshot_rebuild_us.alarm"] = rebuild(p.alarmTr, p.alarmPool, 201)
	p.m["core.snapshot_rebuild_us.munin"] = rebuild(p.muninTr, p.muninPool, 21)

	// Point queries on the loaded sequential tracker: warm from the cached
	// snapshot; cold with one update before every query, per pair.
	x := append([]int(nil), p.queries[0].X...)
	n := p.alarm.Network().Len()
	const warm, cold = 200000, 20000
	sink := 0.0
	p.m["core.queryprob_warm_ns"] = 1e9 * timed(3, func() {
		for i := 0; i < warm; i++ {
			sink += p.alarmTr.QueryProb(x)
		}
	}) / warm
	p.m["core.classify_ns"] = 1e9 * timed(3, func() {
		for i := 0; i < warm; i++ {
			sink += float64(p.alarmTr.Classify(i%n, x))
		}
	}) / warm
	p.m["core.queryprob_cold_ns"] = 1e9 * timed(3, func() {
		for i := 0; i < cold; i++ {
			ev := p.alarmPool[i%len(p.alarmPool)]
			p.alarmTr.Update(ev.Site, ev.X)
			sink += p.alarmTr.QueryProb(x)
		}
	}) / cold
	p.m["core.estimated_model_cold_us"] = 1e6 * timed(3, func() {
		for i := 0; i < 200; i++ {
			ev := p.alarmPool[i%len(p.alarmPool)]
			p.alarmTr.Update(ev.Site, ev.X)
			if _, err = p.alarmTr.EstimatedModel(); err != nil {
				return
			}
		}
	}) / 200
	if err != nil {
		return err
	}
	runtime.KeepAlive(sink)

	// The paper's currency: messages of the exact protocol against the
	// approximate one, same events.
	exact, err := p.newTracker(p.alarm, core.Config{Sites: 30}, true)
	if err != nil {
		return err
	}
	feed(exact, p.alarmPool, 0, probeAlarmEvents, updateBatch, nil)
	exactMsgs := exact.Messages().Total()
	p.m["core.msgs_per_event.exactmle"] = float64(exactMsgs) / probeAlarmEvents
	p.m["core.msg_reduction_x"] = float64(exactMsgs) / float64(nonUniformMsgs)
	return nil
}

func (p *prober) clusterConfig(events int) cluster.Config {
	cfg := batchedCluster()
	cfg.Events, cfg.StreamSeed = events, seedFor(p.seed, partPool)
	return cfg
}

// runCluster times one loopback run and notes what the finished coordinator's
// first snapshot and first model cost.
func (p *prober) runCluster(cfg cluster.Config) (cluster.Result, float64, error) {
	t0 := time.Now()
	res, co, err := cluster.RunLocal(cfg)
	sec := time.Since(t0).Seconds()
	if err != nil {
		return res, 0, err
	}
	p.rebuilds = append(p.rebuilds, 1e6*timed(1, func() { co.AcquireSnapshot().Release() }))
	p.models = append(p.models, 1e6*timed(1, func() { _, err = co.EstimatedModel() }))
	p.lastCo = co
	return res, sec, err
}

func (p *prober) cluster() error {
	hs := p.clusterConfig(2)
	var err error
	p.m["cluster.handshake_ms"] = 1e3 * timed(5, func() {
		if _, _, e := cluster.RunLocal(hs); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}

	// Batched, on two processors and on one.
	res, sec, err := p.runCluster(p.clusterConfig(probeClusterEv))
	if err != nil {
		return err
	}
	p.batchedRate = probeClusterEv / sec
	p.m["cluster.updates_per_frame"] = float64(res.Stats.Updates) / float64(res.Stats.Frames)
	prev := runtime.GOMAXPROCS(1)
	_, sec1, err := p.runCluster(p.clusterConfig(probeClusterEv))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	p.m["cluster.p1_events_per_s"] = probeClusterEv / sec1
	p.m["cluster.scaling_2v1"] = sec1 / sec

	// The same run through a proxy that counts the bytes on the wire.
	bytes, err := wireBytes(p.clusterConfig(probeClusterEv))
	if err != nil {
		return err
	}
	p.m["cluster.wire_bytes_per_event"] = float64(bytes) / probeClusterEv

	// One frame per reporting event: protocol v1, one stripe.
	perEvent := p.clusterConfig(probePerEventEv)
	perEvent.Shards, perEvent.SiteBatchEvents = 1, 0
	res, sec, err = p.runCluster(perEvent)
	if err != nil {
		return err
	}
	p.m["cluster.per_event_events_per_s"] = probePerEventEv / sec
	p.m["cluster.per_event_frames_per_event"] = float64(res.Stats.Frames) / probePerEventEv

	// Four sites behind two relays.
	tree := p.clusterConfig(probeClusterEv)
	tree.Sites = 4
	t0 := time.Now()
	tres, _, _, err := cluster.RunLocalTree(tree, 2, 0)
	if err != nil {
		return err
	}
	p.m["cluster.relay_b2_events_per_s"] = probeClusterEv / time.Since(t0).Seconds()
	p.m["cluster.relay_root_frames_per_event"] = float64(tres.Stats.Frames) / probeClusterEv

	x := p.queries[0].X
	const warm = 100000
	sink := 0.0
	p.m["cluster.queryprob_warm_ns"] = 1e9 * timed(3, func() {
		for i := 0; i < warm; i++ {
			sink += p.lastCo.QueryProb(x)
		}
	}) / warm
	runtime.KeepAlive(sink)
	return nil
}

// wireBytes runs cfg with every site dialling through a forwarding proxy and
// returns the bytes that crossed it, both directions.
func wireBytes(cfg cluster.Config) (int64, error) {
	co, err := cluster.NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer co.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var total atomic.Int64
	var pipes sync.WaitGroup
	pipe := func(dst, src net.Conn) {
		defer pipes.Done()
		n, _ := io.Copy(dst, src) // ends when either side closes; the count is what matters
		total.Add(n)
		dst.Close()
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return // listener closed: the run is over
			}
			up, err := net.Dial("tcp", co.Addr())
			if err != nil {
				down.Close()
				continue
			}
			pipes.Add(2)
			go pipe(up, down)
			go pipe(down, up)
		}
	}()
	errs := make([]error, cfg.Sites)
	var sites sync.WaitGroup
	for id := range errs {
		sites.Add(1)
		go func(id int) {
			defer sites.Done()
			_, errs[id] = cluster.NewSite(uint32(id), ln.Addr().String()).Run()
		}(id)
	}
	_, serveErr := co.Serve()
	sites.Wait()
	ln.Close()
	pipes.Wait()
	for _, err := range append(errs, serveErr) {
		if err != nil {
			return 0, fmt.Errorf("cluster run through the counting proxy: %w", err)
		}
	}
	return total.Load(), nil
}

func (p *prober) structure() error {
	cfg := p.clusterConfig(probeClusterEv)
	cfg.StructBatchEvents = 256
	res, sec, err := p.runCluster(cfg)
	if err != nil {
		return err
	}
	st := p.lastCo.StructLearnStats()
	p.m["cluster.struct_overhead_x"] = p.batchedRate / (probeClusterEv / sec)
	p.m["cluster.struct_frames_per_event"] = float64(st.Frames) / float64(res.Stats.Events)
	p.m["cluster.struct_epochs"] = float64(st.Epoch)
	p.m["cluster.snapshot_rebuild_us"] = median(p.rebuilds)
	p.m["cluster.estimated_model_us"] = median(p.models)

	// Chow-Liu over a dense symmetric matrix the size of alarm's.
	n := p.alarm.Network().Len()
	rng := bn.NewRNG(p.seed)
	mi := make([][]float64, n)
	for i := range mi {
		mi[i] = make([]float64, n)
	}
	for i := range mi {
		for j := i + 1; j < n; j++ {
			mi[i][j] = rng.Float64()
			mi[j][i] = mi[i][j]
		}
	}
	var tree []int
	p.m["chowliu.tree_from_mi_us"] = 1e6 * timed(101, func() { tree = chowliu.TreeFromMI(mi) })
	runtime.KeepAlive(tree)

	layout, err := cluster.NewStructLayout(p.alarm.Network())
	if err != nil {
		return err
	}
	cells := int(layout.Cells())
	w, err := decay.NewWindowVec(cells, 100000, 6)
	if err != nil {
		return err
	}
	const adds = 1 << 21
	p.m["decay.windowvec_add_ns"] = 1e9 * timed(3, func() {
		for i := 0; i < adds; i++ {
			w.Add(i%cells, 1)
		}
		w.Advance(1000)
	}) / adds
	return nil
}

// serveQuiet measures the front end with no writes: each handler alone on an
// in-memory recorder, then the same requests over TCP.
func (p *prober) serveQuiet() error {
	srv, err := serve.New(serve.Config{Source: serve.NewTrackerSource(p.alarmTr)})
	if err == nil {
		err = srv.Start("127.0.0.1:0")
	}
	if err != nil {
		return err
	}
	defer shutdown(srv)
	reqs := buildRequests(p.alarm.Network(), srv.Addr(), p.queries, requestTemplates, seedFor(p.seed, partRequests))

	handler := srv.Handler()
	lat := map[reqKind][]time.Duration{}
	var mix []time.Duration
	for i := 0; i < probeQueries; i++ {
		r := &reqs[i%len(reqs)]
		hr := httptest.NewRequest(http.MethodPost, kindPath[r.kind], bytes.NewReader(r.body()))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, hr)
		d := time.Since(t0)
		if rec.Code != 200 {
			return fmt.Errorf("handler probe: %s answered %d: %s", kindPath[r.kind], rec.Code, rec.Body)
		}
		lat[r.kind] = append(lat[r.kind], d)
		mix = append(mix, d)
	}
	for kind, name := range map[reqKind]string{kindQueryProb: "queryprob", kindSubsetProb: "subsetprob", kindClassify: "classify"} {
		slices.Sort(lat[kind])
		p.m["serve.handler_us_p50."+name] = micros(quantile(lat[kind], 0.5))
	}
	slices.Sort(mix)

	cl, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.close()
	tcp := make([]time.Duration, probeQueries)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range tcp {
		t0 := time.Now()
		status, body, err := cl.do(reqs[i%len(reqs)].raw)
		tcp[i] = time.Since(t0)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("transport probe: answered %d: %s", status, body)
		}
	}
	runtime.ReadMemStats(&after)
	slices.Sort(tcp)
	p.m["serve.transport_us_p50"] = micros(quantile(tcp, 0.5) - quantile(mix, 0.5))
	p.m["serve.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / probeQueries
	return nil
}

// serveUnderIngest is serve-ingest in small: a munin server answering one
// closed-loop client while the paced pump writes.
func (p *prober) serveUnderIngest() error {
	srv, err := serve.New(serve.Config{Source: serve.NewTrackerSource(p.muninTr)})
	if err == nil {
		err = srv.Start("127.0.0.1:0")
	}
	if err != nil {
		return err
	}
	defer shutdown(srv)

	rec := httptest.NewRecorder()
	p.m["serve.model_get_ms"] = 1e3 * timed(1, func() {
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/model", nil))
	})
	if rec.Code != 200 {
		return fmt.Errorf("GET /v1/model answered %d", rec.Code)
	}
	p.m["serve.model_json_bytes"] = float64(rec.Body.Len())

	queries, err := stream.GenQueries(p.munin, stream.QueryOptions{Count: requestTemplates, MinProb: 0.01, Seed: testQuerySeed})
	if err != nil {
		return err
	}
	reqs := buildRequests(p.munin.Network(), srv.Addr(), queries, requestTemplates, seedFor(p.seed, partRequests))
	cl, err := dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.close()

	before := srv.Stats()
	pm := startPump(p.muninTr, p.muninPool, 1, nil)
	ages := make([]time.Duration, 0, probeQueries)
	var waiting time.Duration
	t0 := time.Now()
	for i := 0; i < probeQueries; i++ {
		r := &reqs[i%len(reqs)]
		t := time.Now()
		status, body, err := cl.do(r.raw)
		waiting += time.Since(t)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("serve-under-ingest probe: answered %d: %s", status, body)
		}
		rep, err := parseReply(r.kind, body)
		if err != nil {
			return err
		}
		ages = append(ages, time.Duration(rep.ageUS)*time.Microsecond)
	}
	wall := time.Since(t0)
	_, _, lagP99 := pm.stop()
	after := srv.Stats()
	slices.Sort(ages)
	p.m["serve.refreshes_per_s"] = float64(after.Snapshot.Refreshes-before.Snapshot.Refreshes) / wall.Seconds()
	p.m["serve.snapshot_age_ms_p50"] = millis(quantile(ages, 0.5))
	p.m["serve.shed"] = float64(after.Admission.Shed)
	p.m["serve.deadline_exceeded"] = float64(after.Admission.DeadlineExceeded)
	p.m["gen.pump_lag_ms_p99"] = millis(lagP99)
	p.m["gen.client_busy_pct"] = 100 * (1 - waiting.Seconds()/wall.Seconds())
	return nil
}
