package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

var allStrategies = []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform, core.NaiveBayes}

// oracleSite is the historical site loop, kept as the reference the site
// event kernel must match decision for decision: parent indices from
// netw.ParentIndex whatever model generated the event, a per-id inc that
// looks up the id's eps and evaluates counter.OneWayReportProb on every
// increment, and
// a window kept as an id list with a membership mark, sorted when shipped.
type oracleSite struct {
	netw         *bn.Network
	layout       *counterLayout
	k            int
	sqrtK        float64
	rng          *bn.RNG
	counts       []int64
	gaps         []counter.OneWayGap
	lastReported []int64
	pending      []uint32
	queued       []bool
}

func newOracleSite(netw *bn.Network, layout *counterLayout, k int, rng *bn.RNG) *oracleSite {
	n := layout.NumCounters()
	return &oracleSite{netw: netw, layout: layout, k: k, sqrtK: math.Sqrt(float64(k)), rng: rng,
		counts: make([]int64, n), gaps: make([]counter.OneWayGap, n), lastReported: make([]int64, n), queued: make([]bool, n)}
}

// inc is the historical siteCounters.inc, with the per-increment coin past
// the exact phase replaced by the counter's gap.
func (o *oracleSite) inc(id uint32) (localCount int64, report bool) {
	o.counts[id]++
	n, eps := o.counts[id], o.eps(id)
	if counter.OneWayReportProb(o.k, o.sqrtK, eps, n) >= 1 {
		return n, true
	}
	return n, o.gaps[id].Due(n) && o.gaps[id].Decide(o.rng, o.k, o.sqrtK, eps, n)
}

// eps is the error parameter of counter id: that of the layout section
// holding it.
func (o *oracleSite) eps(id uint32) float64 {
	for _, sec := range o.layout.sections {
		if id < sec.hi {
			return sec.eps
		}
	}
	panic("counter id outside the layout")
}

// event is the historical body of siteRun.stream's loop; it also returns the
// event's decided reports in decision order.
func (o *oracleSite) event(x []int) (reports []Update) {
	for i := 0; i < o.netw.Len(); i++ {
		pidx := o.netw.ParentIndex(i, x)
		for _, id := range [2]uint32{o.layout.PairID(i, x[i], pidx), o.layout.ParID(i, pidx)} {
			if n, report := o.inc(id); report {
				reports = append(reports, Update{Counter: id, LocalCount: n})
				o.lastReported[id] = n
				if !o.queued[id] {
					o.queued[id] = true
					o.pending = append(o.pending, id)
				}
			}
		}
	}
	return reports
}

// window is the historical shipWindow's batch: the pending ids sorted.
func (o *oracleSite) window() (ups []Update) {
	slices.Sort(o.pending)
	for _, id := range o.pending {
		o.queued[id] = false
		ups = append(ups, Update{Counter: id, LocalCount: o.lastReported[id]})
	}
	o.pending = o.pending[:0]
	return ups
}

// replay is the historical replay's batch.
func (o *oracleSite) replay() []Update {
	o.pending = o.pending[:0]
	for id, n := range o.lastReported {
		if n != 0 {
			o.pending = append(o.pending, uint32(id))
		}
	}
	return o.window()
}

func testModel(t testing.TB, name string, cptSeed uint64) *bn.Model {
	t.Helper()
	netw, err := netgen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opt := netgen.DefaultCPTOptions()
	opt.Seed = cptSeed
	cpds, err := netgen.GenCPTs(netw, opt)
	if err != nil {
		t.Fatal(err)
	}
	return bn.MustModel(netw, cpds)
}

// siteReference regenerates site id's stream the way newSiteRun documents it
// — base sub-stream before cfg.DriftAtEvent, drift sub-stream from it on —
// and feeds it to an oracleSite over the base network. next draws one event.
func siteReference(t testing.TB, id uint32, cfg StartConfig) (o *oracleSite, next func() []int) {
	t.Helper()
	model := testModel(t, cfg.NetName, cfg.CPTSeed)
	layout, err := newCounterLayout(model.Network(), core.Strategy(cfg.Strategy), cfg.Eps)
	if err != nil {
		t.Fatal(err)
	}
	o = newOracleSite(model.Network(), layout, int(cfg.Sites),
		bn.NewRNG(cfg.StreamSeed^(uint64(id)*0x9e3779b97f4a7c15)))
	base := stream.NewSiteTraining(model, int(id), cfg.StreamSeed)
	var drift *stream.Training
	if cfg.DriftNetName != "" {
		drift = stream.NewSiteTraining(testModel(t, cfg.DriftNetName, cfg.DriftCPTSeed), int(id), cfg.StreamSeed^0xd21f7a3c5e9b11)
	}
	position := uint64(0)
	return o, func() []int {
		src := base
		if drift != nil && position >= cfg.DriftAtEvent {
			src = drift
		}
		position++
		_, x := src.Next()
		return x
	}
}

// localCounts returns every counter's local count at s, by counter id.
func localCounts(s *siteCounters) []int64 {
	n := make([]int64, len(s.ctrs))
	for id := range s.ctrs {
		n[id] = s.ctrs[id].n
	}
	return n
}

// decodeFrames decodes every updates frame of a site's wire bytes.
func decodeFrames(t *testing.T, wire []byte, numCounters uint32) (frames [][]Update) {
	t.Helper()
	rd := newConn(bytes.NewBuffer(wire))
	for {
		ft, payload, err := rd.readFrame()
		if errors.Is(err, io.EOF) {
			return frames
		}
		if err != nil || ft != frameUpdates2 {
			t.Fatalf("frame %d: type %d: %v", len(frames), ft, err)
		}
		ups, err := decodeUpdates2(nil, payload, numCounters)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ups)
	}
}

// TestDriftRunFlatCountersMatchReference pins the drift exception of the
// site kernel: post-drift events come from a different DAG, and their flat
// counters are still addressed by parent indices over the *tracked* network.
// Every decided report (id, localCount) of a mid-stream-drift run, in order,
// and the final local counts equal the event-by-event reference. Feeding the
// drift sampler's own parent indices to the kernel fails here (and, before
// this test, failed nowhere).
func TestDriftRunFlatCountersMatchReference(t *testing.T) {
	cfg := StartConfig{
		NetName: "tree:12:3:58", CPTSeed: 0xC0DE, Strategy: uint8(core.NonUniform), Eps: 0.1, Delta: 0.25,
		Sites: 2, Events: 6000, StreamSeed: 11,
		DriftNetName: "tree:12:3:59", DriftCPTSeed: 0xD21F, DriftAtEvent: 2500,
	}
	for id := uint32(0); id < cfg.Sites; id++ {
		st, err := newSiteRun(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		if err := st.stream(newConn(&wire), 0); err != nil {
			t.Fatal(err)
		}
		var got, want []Update
		for _, frame := range decodeFrames(t, wire.Bytes(), st.layout.NumCounters()) {
			got = append(got, frame...)
		}
		o, next := siteReference(t, id, cfg)
		for e := uint64(0); e < cfg.Events; e++ {
			want = append(want, o.event(next())...)
		}
		for j := range want {
			if j >= len(got) || got[j] != want[j] {
				t.Fatalf("site %d: decided report %d differs from the reference (%d reports, want %d)", id, j, len(got), len(want))
			}
		}
		if len(got) != len(want) || !slices.Equal(localCounts(st.counts), o.counts) {
			t.Fatalf("site %d: %d reports, want %d; local counts equal: %v", id, len(got), len(want), slices.Equal(localCounts(st.counts), o.counts))
		}
	}
}

// TestSiteEventMatchesPerIDOracle: over 10k events the whole-event kernel
// decides the reports of the historical per-id loop — same sequence, same
// local counts, same generator state — for every strategy.
func TestSiteEventMatchesPerIDOracle(t *testing.T) {
	model := testModel(t, "alarm", 0xC0DE)
	for _, strategy := range allStrategies {
		layout, err := newCounterLayout(model.Network(), strategy, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		const k = 2
		rng := bn.NewRNG(7)
		sc := newSiteCounters(layout, k)
		o := newOracleSite(model.Network(), layout, k, bn.NewRNG(7))
		training := stream.NewSiteTraining(model, 0, uint64(strategy)+1)
		var got []Update
		for e := 0; e < 10000; e++ {
			_, x := training.Next()
			sc.event(x, training.ParentIndices(), rng)
			// One event's decisions ascend by id, so the drained window is
			// the decision sequence.
			got = sc.reported.drain(got[:0])
			if want := o.event(x); !slices.Equal(got, want) {
				t.Fatalf("%v event %d: reports %v, oracle %v", strategy, e, got, want)
			}
		}
		if !slices.Equal(localCounts(sc), o.counts) || !slices.Equal(sc.reported.vals, o.lastReported) || rng.State() != o.rng.State() {
			t.Fatalf("%v: counts, latest reports or generator state differ from the oracle", strategy)
		}
	}
}

// TestBitsetWindowShipsSortedListFrames: the site's wire bytes — window of
// one, window of 128, and a resume replay in the middle of a window — equal
// the frames of the historical sorted id list.
func TestBitsetWindowShipsSortedListFrames(t *testing.T) {
	for _, batch := range []uint32{0, 128} {
		t.Run(fmt.Sprintf("window=%d", batch), func(t *testing.T) {
			cfg := StartConfig{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: uint8(core.NonUniform), Eps: 0.1, Delta: 0.25,
				Sites: 2, Events: 3000, StreamSeed: 5, BatchEvents: batch,
			}
			const replayAt = 1000 // not a multiple of 128: replay lands mid-window
			st, err := newSiteRun(1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			w := newConn(&got)
			if err := st.stream(w, replayAt); !errors.Is(err, ErrSiteCrashed) {
				t.Fatalf("stream stopped with %v, want the crash hook", err)
			}
			if err := st.replay(w); err != nil {
				t.Fatal(err)
			}
			if err := st.stream(w, 0); err != nil {
				t.Fatal(err)
			}

			var want bytes.Buffer
			ow := newConn(&want)
			o, next := siteReference(t, 1, cfg)
			ship := func(ups []Update) {
				if len(ups) == 0 {
					return // an empty window sends no frame
				}
				if err := ow.writeFrame(frameUpdates2, encodeUpdates2(nil, ups)); err != nil {
					t.Fatal(err)
				}
			}
			window := uint64(max(batch, 1))
			for e := uint64(1); e <= cfg.Events; e++ {
				o.event(next())
				if e%window == 0 && len(o.pending) > 0 {
					ship(o.window())
				}
				if e == replayAt {
					ship(o.replay())
				}
			}
			ship(o.window())
			if err := ow.flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d wire bytes differ from the sorted-list reference's %d", got.Len(), want.Len())
			}
			if want.Len() == 0 {
				t.Fatal("shipped nothing")
			}
		})
	}
}

// siteEventBench builds a warm site over name and returns one whole site
// event — sample, count, window bookkeeping — as a closure. With sampling
// set, every counter is first pushed past its exact phase, so an increment
// pays a compare and, at a proposal, a decision and the next gap; otherwise
// ε is so small that every counter stays exact.
func siteEventBench(tb testing.TB, name string, sampling bool) func() {
	tb.Helper()
	cfg := StartConfig{
		NetName: name, CPTSeed: 0xC0DE, Strategy: uint8(core.NonUniform), Eps: 1e-9, Delta: 0.25,
		Sites: 2, Events: math.MaxUint64, StreamSeed: 1, BatchEvents: 128,
	}
	if sampling {
		cfg.Eps = 0.1
	}
	st, err := newSiteRun(0, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if sampling {
		for id := range st.counts.ctrs {
			st.counts.ctrs[id].n = 1 << 20
		}
	}
	return func() {
		x, pidx := st.nextEvent()
		st.counts.event(x, pidx, st.rng)
		if st.next++; st.next%128 == 0 {
			st.ups = st.counts.reported.drain(st.ups[:0])
		}
	}
}

// BenchmarkSiteEvent measures one site event (ns/op is ns/event) on the
// smallest and the largest bundled network, with every counter in its exact
// phase and with every counter drawing gaps.
func BenchmarkSiteEvent(b *testing.B) {
	for _, name := range []string{"alarm", "munin"} {
		for _, phase := range []string{"exact", "sampling"} {
			b.Run(name+"/"+phase, func(b *testing.B) {
				event := siteEventBench(b, name, phase == "sampling")
				for i := 0; i < 256; i++ {
					event()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					event()
				}
			})
		}
	}
}
