package cluster

import (
	"math"
	"slices"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/stream"
)

// estFingerprint hashes the bit pattern of every counter estimate (FNV-1a),
// so two runs agree iff every estimate is bit-identical.
func estFingerprint(co *Coordinator) uint64 {
	h := uint64(1469598103934665603)
	for _, e := range allEstimates(co) {
		bits := math.Float64bits(e)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestSequentialClusterBitCompat pins the refactored cluster layer to the
// pre-refactor implementation (PR 3 HEAD): with a single coordinator stripe
// and site batching off, the same config must reproduce the historical
// estimates bit for bit — the goldens below were generated by the serial
// accept-loop coordinator before the striped rewrite. Site report decisions
// are per-site deterministic (each site draws from its own seeded RNG), the
// coordinator's max-merge is order-independent, and the estimate arithmetic
// is unchanged, so any divergence here is a real behavior change.
//
// One such change was made on purpose: past its exact phase a site draws the
// gap to its next report (counter.OneWayGap) instead of a coin per
// increment, which changes which counts report for a seed, not the chance of
// any. The three approximate rows were re-recorded then; at PR 3 HEAD they
// read Baseline 289159 updates, 0xe6f97df32ce1276c; Uniform 285999,
// 0x0bf114c7bd8a768c; NonUniform 292302, 0x01773219f6eab652. The ExactMLE
// row, whose counters never leave the exact phase, is PR 3 HEAD's still.
// TestCheckpointGoldenBitCompat must read the same estimate hashes.
func TestSequentialClusterBitCompat(t *testing.T) {
	golden := []struct {
		strategy core.Strategy
		updates  int64
		esthash  uint64
	}{
		{core.ExactMLE, 296000, 0xee6784936905cf9f},
		{core.Baseline, 289217, 0x205a2f60c2a9c669},
		{core.Uniform, 285933, 0x209eb5212c1539cf},
		{core.NonUniform, 292221, 0xf7ee2d63c668ae1e},
	}
	for _, g := range golden {
		g := g
		t.Run(g.strategy.String(), func(t *testing.T) {
			cfg := Config{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: g.strategy, Eps: 0.1, Delta: 0.25,
				Sites: 3, Events: 4000, StreamSeed: 99,
			}
			res, co, err := RunLocal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Updates != g.updates {
				t.Errorf("updates = %d, want %d (golden)", res.Stats.Updates, g.updates)
			}
			if res.Stats.Frames != 4003 {
				t.Errorf("frames = %d, want 4003 (PR 3 HEAD golden)", res.Stats.Frames)
			}
			if h := estFingerprint(co); h != g.esthash {
				t.Errorf("estimate fingerprint = %#016x, want %#016x (golden)", h, g.esthash)
			}
		})
	}
}

// TestLiveQueriesDuringRun is the query-at-any-time test: k sites stream
// over loopback while a query goroutine hammers QueryProb and
// EstimatedModel against the live coordinator. Under -race this proves the
// ingest fold and the snapshot query path are clean against each
// other; the assertions prove mid-run answers are coherent probabilities
// and that answers from late in the run stay within a tight envelope of the
// final model (the (ε, δ) envelope plus prefix-sampling noise; the probe
// cells are high-count root CPD entries so the statistical slack is small).
func TestLiveQueriesDuringRun(t *testing.T) {
	// Per-event frames (batching off) keep LiveStats().Frames an accurate
	// stream-progress proxy for the envelope assertion below; the batched
	// live mix is covered by TestRunLocalLiveQueryMix.
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.ExactMLE,
		Sites: 4, Events: 16000, StreamSeed: 13,
	}
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	serveRes := make(chan error, 1)
	go func() {
		_, err := co.Serve()
		serveRes <- err
	}()
	for i := 0; i < cfg.Sites; i++ {
		go func(i int) {
			_, _ = NewSite(uint32(i), co.Addr()).Run()
		}(i)
	}

	// Find the roots: their CPDs have parent config 0 only and accumulate
	// counts from every event, so prefix estimates converge fast.
	netw := co.Network()
	var roots []int
	for i := 0; i < netw.Len(); i++ {
		if netw.ParentCard(i) == 1 {
			roots = append(roots, i)
		}
	}
	if len(roots) == 0 {
		t.Fatal("alarm has no root variables?")
	}

	type probe struct {
		frames int64     // progress proxy: exact strategy sends ~1 frame per event
		root   []float64 // root CPD row at probe time
	}
	var probes []probe
	rng := bn.NewRNG(17)
	var x []int
	done := false
	for !done {
		select {
		case err := <-serveRes:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		// The mid-run mix: joint queries, model snapshots, live stats.
		x = stream.RandomAssignment(netw, rng, x)
		if p := co.QueryProb(x); math.IsNaN(p) || p < 0 || p > 1.0000001 {
			t.Fatalf("mid-run QueryProb = %v", p)
		}
		m, err := co.EstimatedModel()
		if err != nil {
			t.Fatalf("mid-run EstimatedModel: %v", err)
		}
		row := make([]float64, netw.Card(roots[0]))
		for v := range row {
			row[v] = m.CPD(roots[0]).P(v, 0)
		}
		probes = append(probes, probe{frames: co.LiveStats().Frames, root: row})
		time.Sleep(200 * time.Microsecond)
	}

	final, err := co.EstimatedModel()
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) < 4 {
		t.Skipf("only %d mid-run probes landed; too fast a run to assert on", len(probes))
	}
	// Envelope: probes taken after half the stream must be close to the
	// final model on the high-count root cells.
	half := int64(cfg.Events / 2)
	checked := 0
	for _, pr := range probes {
		if pr.frames < half {
			continue
		}
		for v, got := range pr.root {
			want := final.CPD(roots[0]).P(v, 0)
			if want < 0.05 {
				continue
			}
			if r := got / want; r < math.Exp(-0.5) || r > math.Exp(0.5) {
				t.Errorf("late probe (frames=%d) root P(%d) = %v, final %v (outside e^±0.5)", pr.frames, v, got, want)
			}
			checked++
		}
	}
	t.Logf("%d probes, %d late-envelope cells checked", len(probes), checked)
}

// TestRunLocalLiveQueryMix: the RunLocal-level query mix counts its probes
// and completes cleanly alongside batching.
func TestRunLocalLiveQueryMix(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform, Eps: 0.1,
		Sites: 3, Events: 9000, StreamSeed: 21,
		SiteBatchEvents: 64, LiveQueryMicros: 100,
	}
	res, co, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Events != 9000 {
		t.Errorf("events = %d", res.Stats.Events)
	}
	if res.LiveQueries == 0 {
		t.Error("live query mix issued no queries")
	}
	// The coordinator stays queryable after the run, same snapshot path.
	x := make([]int, co.Network().Len())
	if p := co.QueryProb(x); math.IsNaN(p) || p < 0 || p > 1.0000001 {
		t.Errorf("post-run QueryProb = %v", p)
	}
}

// TestUpdates2RoundTrip exercises the coalesced codec directly.
func TestUpdates2RoundTrip(t *testing.T) {
	ups := []Update{
		{Counter: 0, LocalCount: 1},
		{Counter: 7, LocalCount: 300},
		{Counter: 8, LocalCount: 1 << 40},
		{Counter: 995, LocalCount: 42},
	}
	dec, err := decodeUpdates2(nil, encodeUpdates2(nil, ups), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(ups) {
		t.Fatalf("decoded %d entries, want %d", len(dec), len(ups))
	}
	for i := range ups {
		if dec[i] != ups[i] {
			t.Errorf("entry %d: %+v != %+v", i, dec[i], ups[i])
		}
	}
	if dec, err := decodeUpdates2(nil, encodeUpdates2(nil, nil), 1000); err != nil || len(dec) != 0 {
		t.Errorf("empty round trip: %v %v", dec, err)
	}
}

// TestUpdates2RejectsMalformed: the decoder must reject out-of-layout ids,
// non-ascending ids, truncations, overdeclared counts and trailing bytes —
// each before or without any large allocation.
func TestUpdates2RejectsMalformed(t *testing.T) {
	good := encodeUpdates2(nil, []Update{{Counter: 3, LocalCount: 5}, {Counter: 9, LocalCount: 2}})
	if _, err := decodeUpdates2(nil, good, 10); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"truncated":        good[:len(good)-1],
		"trailing":         append(append([]byte{}, good...), 0),
		"id out of layout": encodeUpdates2(nil, []Update{{Counter: 10, LocalCount: 1}}),
		"overdeclared":     {200, 1, 1}, // declares 200 entries in 2 bytes
	}
	for name, b := range cases {
		if _, err := decodeUpdates2(nil, b, 10); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Non-ascending ids: hand-craft two entries with zero delta.
	nonAsc := []byte{2, 5, 1, 0, 1} // count=2, (id=5,c=1), (delta=0,c=1)
	if _, err := decodeUpdates2(nil, nonAsc, 10); err == nil {
		t.Error("non-ascending ids accepted")
	}
	// Wraparound deltas: a delta of 2^64-3 would wrap the id accumulator
	// from 5 back to 2, smuggling a descending id past the ascending and
	// range checks if the delta itself were not bounded.
	wrap := append([]byte{2, 5, 1}, maxUvarint()...) // count=2, (id=5,c=1), (delta=2^64-3,c=1)
	wrap[3] -= 2                                     // low varint byte: 2^64-1 -> 2^64-3
	wrap = append(wrap, 1)
	if dec, err := decodeUpdates2(nil, wrap, 10); err == nil {
		t.Errorf("wraparound delta accepted: %+v", dec)
	}
	// Entry count beyond the layout is rejected up front.
	huge := encodeUpdates2(nil, []Update{{Counter: 1, LocalCount: 1}, {Counter: 2, LocalCount: 1}, {Counter: 3, LocalCount: 1}})
	if _, err := decodeUpdates2(nil, huge, 2); err == nil {
		t.Error("entry count beyond layout accepted")
	}
}

// TestReadLimitRejectsOversizedHeader: a frame header declaring more than
// the connection's limit must fail before the payload is read or allocated.
func TestReadLimitRejectsOversizedHeader(t *testing.T) {
	var wire chanBuf
	src := newConn(&wire)
	// Craft a header for a 1 MB frame by hand.
	hdr := []byte{frameUpdates, 0, 0, 0x10, 0} // 0x100000 little-endian
	wire.buf = append(wire.buf, hdr...)
	dst := newConn(&wire)
	dst.setReadLimit(1 << 12)
	if _, _, err := dst.readFrame(); err == nil {
		t.Error("oversized frame header accepted")
	}
	_ = src
}

// TestStartConfigV1Decodes pins both directions of start-frame compat: a
// version-1 frame (no trailing BatchEvents field) decodes with
// BatchEvents = 0, and a coordinator with batching off EMITS the version-1
// length, so old site binaries — whose decoders required it exactly —
// interoperate with a new coordinator.
func TestStartConfigV1Decodes(t *testing.T) {
	cfg := StartConfig{
		NetName: "alarm", CPTSeed: 1, Strategy: 2, Eps: 0.1, Delta: 0.25,
		Sites: 4, Site: 1, Events: 1000, StreamSeed: 5, LatencyMicros: 0,
		BatchEvents: 128,
	}
	full := encodeStart(cfg)
	v1 := full[:len(full)-4] // strip the BatchEvents field
	got, err := decodeStart(v1)
	if err != nil {
		t.Fatalf("v1 start frame rejected: %v", err)
	}
	want := cfg
	want.BatchEvents = 0
	if got != want {
		t.Errorf("v1 decode = %+v, want %+v", got, want)
	}
	// Batching off ⇒ version-1 encoding, byte for byte.
	noBatch := cfg
	noBatch.BatchEvents = 0
	if v1enc := encodeStart(noBatch); !slices.Equal(v1enc, v1) {
		t.Errorf("batching-off encode is not the version-1 frame:\n got %v\nwant %v", v1enc, v1)
	}
	if got, err := decodeStart(full); err != nil || got != cfg {
		t.Errorf("v2 round trip = %+v, %v", got, err)
	}
}

// chanBuf is a trivial in-memory ReadWriter for protocol unit tests.
type chanBuf struct{ buf []byte }

func (c *chanBuf) Read(p []byte) (int, error) {
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

func (c *chanBuf) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}
