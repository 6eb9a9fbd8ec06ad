package cluster

import (
	"math"
	"net"
	"testing"
	"testing/quick"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

func TestProtocolRoundTrips(t *testing.T) {
	cfg := StartConfig{
		NetName: "alarm", CPTSeed: 42, Strategy: 3, Eps: 0.1, Delta: 0.25,
		Sites: 7, Site: 3, Events: 123456, StreamSeed: 99, LatencyMicros: 250,
	}
	got, err := decodeStart(encodeStart(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Errorf("start round trip: %+v != %+v", got, cfg)
	}

	ups := []Update{{Counter: 1, LocalCount: 5}, {Counter: 900, LocalCount: -3}}
	dec, err := decodeUpdates(nil, encodeUpdates(nil, ups))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 2 || dec[0] != ups[0] || dec[1] != ups[1] {
		t.Errorf("updates round trip: %v", dec)
	}

	site, events, err := decodeDone(encodeDone(9, 777))
	if err != nil || site != 9 || events != 777 {
		t.Errorf("done round trip: %d %d %v", site, events, err)
	}

	st := Stats{Frames: 1, Updates: 2, Events: 3}
	if got, err := decodeStats(encodeStats(st)); err != nil || got != st {
		t.Errorf("stats round trip: %+v %v", got, err)
	}

	if id, err := decodeHello(encodeHello(12)); err != nil || id != 12 {
		t.Errorf("hello round trip: %d %v", id, err)
	}
}

func TestProtocolRejectsMalformed(t *testing.T) {
	if _, err := decodeStart([]byte{1}); err == nil {
		t.Error("short start accepted")
	}
	if _, err := decodeUpdates(nil, make([]byte, 13)); err == nil {
		t.Error("misaligned updates accepted")
	}
	if _, _, err := decodeDone(make([]byte, 5)); err == nil {
		t.Error("short done accepted")
	}
	if _, err := decodeStats(make([]byte, 3)); err == nil {
		t.Error("short stats accepted")
	}
	if _, err := decodeHello(make([]byte, 3)); err == nil {
		t.Error("short hello accepted")
	}
}

func TestStartConfigQuickRoundTrip(t *testing.T) {
	f := func(cptSeed, streamSeed uint64, strat uint8, sites, site, lat uint32, events uint64) bool {
		cfg := StartConfig{
			NetName: "hepar2", CPTSeed: cptSeed, Strategy: strat,
			Eps: 0.25, Delta: 0.1, Sites: sites, Site: site,
			Events: events, StreamSeed: streamSeed, LatencyMicros: lat,
		}
		got, err := decodeStart(encodeStart(cfg))
		return err == nil && got == cfg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLayoutDisjointAndComplete(t *testing.T) {
	net, err := netgen.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	l, err := newCounterLayout(net, core.Uniform, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := uint32(0)
	for i := 0; i < net.Len(); i++ {
		want += uint32(net.Card(i)*net.ParentCard(i) + net.ParentCard(i))
	}
	if l.NumCounters() != want {
		t.Errorf("NumCounters = %d, want %d", l.NumCounters(), want)
	}
	seen := make(map[uint32]bool, want)
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				id := l.PairID(i, v, pidx)
				if id >= l.NumCounters() || seen[id] {
					t.Fatalf("pair id %d invalid or duplicated", id)
				}
				seen[id] = true
			}
			id := l.ParID(i, pidx)
			if id >= l.NumCounters() || seen[id] {
				t.Fatalf("par id %d invalid or duplicated", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != int(want) {
		t.Errorf("layout covered %d ids, want %d", len(seen), want)
	}
}

func TestClusterEndToEndExact(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 4, Events: 2000, StreamSeed: 5,
	}
	res, co, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Events != 2000 {
		t.Errorf("events = %d, want 2000", res.Stats.Events)
	}
	// Exact strategy: every event produces one frame with 2n updates.
	n := int64(co.Network().Len())
	if res.Stats.Updates != 2000*2*n {
		t.Errorf("updates = %d, want %d", res.Stats.Updates, 2000*2*n)
	}
	if res.Stats.Frames != 2000+int64(cfg.Sites) {
		t.Errorf("frames = %d, want %d (events + done markers)", res.Stats.Frames, 2000+cfg.Sites)
	}
	if res.Runtime <= 0 {
		t.Errorf("runtime = %v, want > 0", res.Runtime)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v", res.Throughput)
	}
}

func TestClusterApproximateAccuracyAndSavings(t *testing.T) {
	exactCfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 5, Events: 30000, StreamSeed: 23,
	}
	exRes, exCo, err := RunLocal(exactCfg)
	if err != nil {
		t.Fatal(err)
	}
	apCfg := exactCfg
	apCfg.Strategy = core.Uniform
	apCfg.Eps = 0.1
	apRes, apCo, err := RunLocal(apCfg)
	if err != nil {
		t.Fatal(err)
	}
	if apRes.Stats.Updates >= exRes.Stats.Updates {
		t.Errorf("approximate updates %d >= exact %d", apRes.Stats.Updates, exRes.Stats.Updates)
	}
	// Compare joint queries between the exact and approximate coordinators.
	opt := netgen.DefaultCPTOptions()
	opt.Seed = exactCfg.CPTSeed
	cpds, _ := netgen.GenCPTs(exCo.Network(), opt)
	model, _ := bn.NewModel(exCo.Network(), cpds)
	qs, err := stream.GenQueries(model, stream.QueryOptions{Count: 100, MinProb: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, q := range qs {
		ref := subsetProb(exCo, q.Set, q.X)
		got := subsetProb(apCo, q.Set, q.X)
		if ref <= 0 {
			continue
		}
		if ratio := got / ref; ratio < math.Exp(-0.5) || ratio > math.Exp(0.5) {
			bad++
		}
	}
	if bad > len(qs)/10 {
		t.Errorf("%d/%d cluster queries outside e^±0.5 of exact", bad, len(qs))
	}
}

// subsetProb evaluates an ancestrally closed event on a coordinator.
func subsetProb(co *Coordinator, set []int, x []int) float64 {
	netw := co.Network()
	layout, est := co.layout, allEstimates(co)
	p := 1.0
	for _, i := range set {
		pidx := netw.ParentIndex(i, x)
		den := est[layout.ParID(i, pidx)]
		if den <= 0 {
			return 0
		}
		p *= est[layout.PairID(i, x[i], pidx)] / den
	}
	return p
}

func TestClusterQueryProb(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 2, Events: 5000, StreamSeed: 31,
	}
	_, co, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]int, co.Network().Len())
	p := co.QueryProb(x)
	if p < 0 || p > 1.000001 || math.IsNaN(p) {
		t.Errorf("QueryProb = %v", p)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NetName: "", Sites: 2, Events: 10},
		{NetName: "alarm", Sites: 0, Events: 10},
		{NetName: "alarm", Sites: 2, Events: 0},
		{NetName: "alarm", Sites: 2, Events: 10, Strategy: core.Uniform, Eps: 0},
		{NetName: "alarm", Sites: 2, Events: 10, Strategy: core.Baseline, Eps: math.NaN()},
		{NetName: "alarm", Sites: 2, Events: 10, Strategy: core.Strategy(9), Eps: 0.1},
		{NetName: "alarm", Sites: 2, Events: 10, Strategy: core.ExactMLE, HotSiteShare: math.NaN()},
		{NetName: "alarm", Sites: 2, Events: 10, Strategy: core.ExactMLE, DriftNetName: "alarm", DriftAfter: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := NewCoordinator(cfg, "127.0.0.1:0"); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewCoordinator(Config{
		NetName: "nope", Sites: 1, Events: 1, Strategy: core.ExactMLE,
	}, "127.0.0.1:0"); err == nil {
		t.Error("unknown network accepted")
	}
}

// TestSiteRefusesInvalidStartConfig: a site checks the start frame it is
// sent against the coordinator's own run-shape rule and ends its run with an
// error. Without the check, zero sites or a NaN eps kept the site computing
// its report thresholds for about 2^63 steps, and an infinite eps left it
// never reporting. Each case has a deadline, so a hang fails the case
// instead of the package.
func TestSiteRefusesInvalidStartConfig(t *testing.T) {
	base := StartConfig{NetName: "tree:6:2:1", Strategy: uint8(core.Uniform), Eps: 0.1, Delta: 0.25, Sites: 2, Events: 100}
	cases := map[string]func(*StartConfig){
		"zero sites":       func(c *StartConfig) { c.Sites = 0 },
		"uniform NaN eps":  func(c *StartConfig) { c.Eps = math.NaN() },
		"baseline NaN eps": func(c *StartConfig) { c.Strategy, c.Eps = uint8(core.Baseline), math.NaN() },
		"infinite eps":     func(c *StartConfig) { c.Eps = math.Inf(1) },
		"eps one":          func(c *StartConfig) { c.Eps = 1 },
		"unknown strategy": func(c *StartConfig) { c.Strategy = 200 },
	}
	if _, err := newSiteRun(0, base); err != nil {
		t.Fatalf("valid start config refused: %v", err)
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base
			edit(&cfg)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			site := NewSite(0, ln.Addr().String())
			site.DialAttempts = 1
			done := make(chan error, 1)
			go func() {
				_, err := site.Run()
				done <- err
			}()
			raw, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			raw.SetDeadline(time.Now().Add(3 * time.Second))
			c := newConn(raw)
			if ft, _, err := c.readFrame(); err != nil || ft != frameHello {
				t.Fatalf("site opened with frame %d (%v), want hello", ft, err)
			}
			if err := c.send(frameStart, encodeStart(cfg)); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err == nil {
					t.Fatalf("site accepted start config %+v", cfg)
				}
			case <-time.After(3 * time.Second):
				t.Fatalf("site still running 3s after start config %+v", cfg)
			}
		})
	}
}

func TestClusterWithLatencyKnob(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform, Eps: 0.2,
		Sites: 2, Events: 200, StreamSeed: 41, LatencyMicros: 50,
	}
	res, _, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Events != 200 {
		t.Errorf("events = %d", res.Stats.Events)
	}
}

func TestThroughputImprovesWithSitesUnderLatency(t *testing.T) {
	// With an artificial per-frame latency, more sites mean more parallel
	// stream processing: throughput should rise (Fig. 8's trend).
	run := func(k int) float64 {
		cfg := Config{
			NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform, Eps: 0.1,
			Sites: k, Events: 1200, StreamSeed: 47, LatencyMicros: 300,
		}
		res, _, err := RunLocal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	t1 := run(1)
	t4 := run(4)
	if t4 <= t1 {
		t.Errorf("throughput with 4 sites (%v) not above 1 site (%v)", t4, t1)
	}
}

// TestSiteFailureSurfacesAsError kills a site mid-protocol and verifies the
// coordinator reports the failure instead of hanging or fabricating results.
func TestSiteFailureSurfacesAsError(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 2, Events: 100000, StreamSeed: 3,
	}
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	serveErr := make(chan error, 1)
	go func() {
		_, err := co.Serve()
		serveErr <- err
	}()

	// Site 0 runs normally.
	go func() {
		_, _ = NewSite(0, co.Addr()).Run()
	}()
	// Site 1 connects, introduces itself, then drops the connection.
	raw, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	if err := c.writeFrame(frameHello, encodeHello(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	// Read the start frame, then vanish.
	if _, _, err := c.readFrame(); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	select {
	case err := <-serveErr:
		if err == nil {
			t.Error("coordinator reported success despite site failure")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung after site failure")
	}
}

// TestOutOfRangeSiteIDRejected verifies an out-of-range site id is refused.
func TestOutOfRangeSiteIDRejected(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 1, Events: 10, StreamSeed: 3,
	}
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	serveErr := make(chan error, 1)
	go func() {
		_, err := co.Serve()
		serveErr <- err
	}()
	raw, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newConn(raw)
	if err := c.writeFrame(frameHello, encodeHello(99)); err != nil {
		t.Fatal(err)
	}
	if err := c.flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err == nil {
			t.Error("out-of-range site id accepted")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on bad site id")
	}
}
