package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/stream"
)

// TestMatrix runs every way this module ingests a stream — the tracker's
// engines and entry points, the one-way tracker, the TCP cluster flat,
// batched, skewed, behind relays, restored from a checkpoint and with
// structure learning on — for every strategy, and holds each run to the
// reference of reference_test.go over the same events. A row is one
// topology and mode; it runs, per strategy, the seeds 1…N, each seed an
// alarm stream (CPTs seeded 0xC0DE) of 2 000 events over k = 4 sites, split
// as the cluster splits it, at ε = 0.9 and δ = 0.25. Four checks:
//
//   - exact: every exact counter (all of them under EXACTMLE) equals the
//     reference's count, and so does every ExactCount of a tracker under any
//     strategy; an EXACTMLE tracker sends exactly 2n messages per event
//     (Lemma 5);
//   - error: a randomized counter misses when |estimate − count| > ε′·count,
//     and only counters past their exact phase are scored. Pooled over the
//     N seeds, a row's miss rate may exceed the reference's — which runs
//     refRuns times per seed on the same events, from its own seeds — only
//     by what a one-sided two-proportion z-test allows at false-alarm rate
//     10⁻³;
//   - cost: a randomized run sends at most core.CostBound·√k·ln(1/δ)·log₂ m
//     messages (Theorems 1 and 2 and Section IV-C);
//   - twin: where a row names a twin, its estimates equal the twin's on the
//     same seed, Float64bits for Float64bits, and its frames and messages
//     keep the stated relation to the twin's.
//
// N is 4 (2 under -short) and the bound is fixed here, before any run. A
// failure names its row and seed and prints the command that reruns the
// row; a striped row reruns its seeded schedules, though not the goroutine
// interleaving under them.
func TestMatrix(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	m := newMatrix(t)
	for _, r := range matrixRows {
		t.Run(r.name, func(t *testing.T) {
			for _, strategy := range strategies {
				t.Run(strategy.String(), func(t *testing.T) {
					var miss, refMiss [2]int // misses, counters scored
					for seed := range uint64(seeds) {
						c := m.newCase(t, r, strategy, seed+1)
						got, refs := m.outcome(c), m.references(c, r.kind)
						c.check(got, refs, &miss, &refMiss)
						if r.twin != "" {
							c.checkTwin(r, got, m.outcome(m.newCase(t, matrixRow(r.twin), strategy, seed+1)))
						}
					}
					checkMissRate(t, r.name+"/"+strategy.String(), seeds, miss, refMiss)
				})
			}
		})
	}
}

const (
	matrixCPTSeed = 0xC0DE
	matrixEps     = 0.9
	matrixDelta   = 0.25
	matrixSites   = 4
	matrixEvents  = 2000
	// refRuns is how many times the reference runs each seed's events.
	refRuns = 4
	// zCrit is the standard normal's 1 − 10⁻³ quantile.
	zCrit = 3.090232306167813
)

var strategies = []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform, core.NaiveBayes}

// A matrixRowSpec is one topology and mode: how a case runs, which
// randomized counter the reference runs beside it, the share of the stream
// routed to site 0, and the row it must equal bit for bit (if any) with the
// relation its frames and messages keep to that twin's.
type matrixRowSpec struct {
	name   string
	kind   refKind
	hot    float64
	run    func(c *matrixCase) outcome
	twin   string
	relate func(got, twin outcome) error
}

var matrixRows = []matrixRowSpec{
	{name: "tracker-sequential", run: trackerSequential},
	{name: "tracker-batched", run: trackerBatched, twin: "tracker-sequential", relate: sameMessages},
	{name: "tracker-ingest", run: trackerIngest, twin: "tracker-sequential", relate: sameMessages},
	{name: "tracker-striped", run: trackerStriped},
	{name: "tracker-restored", run: trackerRestored, twin: "tracker-sequential", relate: sameMessages},
	{name: "cluster-flat", kind: refOneWay, run: clusterRun(nil)},
	{name: "cluster-hot50", kind: refOneWay, hot: 0.5, run: clusterRun(nil)},
	{name: "cluster-hot90", kind: refOneWay, hot: 0.9, run: clusterRun(nil)},
	{name: "oneway-tracker", kind: refOneWay, run: oneWayTracker, twin: "cluster-flat", relate: sameMessages},
	{name: "oneway-tracker-hot90", kind: refOneWay, hot: 0.9, run: oneWayTracker, twin: "cluster-hot90", relate: sameMessages},
	{name: "cluster-batched", kind: refOneWay, run: clusterRun(func(cfg *cluster.Config) { cfg.SiteBatchEvents = 128 }),
		twin: "cluster-flat", relate: fewerFrames(4)},
	{name: "relay-depth1", kind: refOneWay, run: relayTree(1), twin: "cluster-flat", relate: fewerFrames(3)},
	{name: "relay-depth2", kind: refOneWay, run: relayTree(2), twin: "cluster-flat", relate: fewerFrames(0)},
	{name: "relay-depth3", kind: refOneWay, run: relayTree(3), twin: "cluster-flat", relate: fewerFrames(0)},
	{name: "cluster-restored", kind: refOneWay, run: clusterRestored, twin: "cluster-flat", relate: sameMessages},
	{name: "cluster-struct", kind: refOneWay, run: clusterRun(func(cfg *cluster.Config) { cfg.StructBatchEvents = 128 }),
		twin: "cluster-flat", relate: sameMessages},
}

func matrixRow(name string) matrixRowSpec {
	for _, r := range matrixRows {
		if r.name == name {
			return r
		}
	}
	panic("no matrix row " + name)
}

// outcome is what a run left: its raw estimate rows (Snapshot.Estimates),
// the messages it sent — a tracker's Messages().Total(), a cluster's update
// entries — the frames its coordinator received, the events it counted,
// and, for a tracker, the ExactCount of every cell in the rows' layout.
type outcome struct {
	rows         [][]float64
	counts       [][]int64
	msgs, frames int64
	events       int64
}

// matrix holds the stream model and memoizes streams, runs and references,
// so a twin runs once per strategy and seed, and on its own when its row is
// not selected.
type matrix struct {
	model    *bn.Model
	streams  map[string][][]core.Event
	outcomes map[string]outcome
	refs     map[string][]*reference
}

func newMatrix(t *testing.T) *matrix {
	return &matrix{model: alarmModel(t, matrixCPTSeed), streams: map[string][][]core.Event{},
		outcomes: map[string]outcome{}, refs: map[string][]*reference{}}
}

// matrixCase is one row, strategy and seed, with the seed's events per site
// as the cluster generates them.
type matrixCase struct {
	t        *testing.T
	row      matrixRowSpec
	path     string // the subtest below TestMatrix: row/strategy
	strategy core.Strategy
	seed     uint64
	cfg      cluster.Config
	model    *bn.Model
	streams  [][]core.Event
}

func (m *matrix) newCase(t *testing.T, r matrixRowSpec, strategy core.Strategy, seed uint64) *matrixCase {
	cfg := cluster.Config{NetName: "alarm", CPTSeed: matrixCPTSeed, Strategy: strategy, Eps: matrixEps, Delta: matrixDelta,
		Sites: matrixSites, Events: matrixEvents, StreamSeed: seed, HotSiteShare: r.hot}
	c := &matrixCase{t: t, row: r, path: r.name + "/" + strategy.String(), strategy: strategy, seed: seed, cfg: cfg, model: m.model}
	key := fmt.Sprint(r.hot, seed)
	if c.streams = m.streams[key]; c.streams == nil {
		for site := range cfg.Sites {
			c.streams = append(c.streams, stream.NewSiteTraining(m.model, site, seed).NextEvents(nil, siteEvents(cfg, site)))
		}
		m.streams[key] = c.streams
	}
	return c
}

func (m *matrix) outcome(c *matrixCase) outcome {
	key := fmt.Sprint(c.path, c.seed)
	o, ok := m.outcomes[key]
	if !ok {
		o = c.row.run(c)
		m.outcomes[key] = o
	}
	return o
}

// references runs the reference refRuns times over c's events, in the
// order interleaved gives them.
func (m *matrix) references(c *matrixCase, kind refKind) []*reference {
	key := fmt.Sprint(kind, c.strategy, c.cfg.HotSiteShare, c.seed)
	if refs, ok := m.refs[key]; ok {
		return refs
	}
	var refs []*reference
	for run := range uint64(refRuns) {
		ref, err := newReference(m.model.Network(), kind, c.strategy, matrixEps, matrixSites, c.seed<<8|run)
		if err != nil {
			c.fatalf("%v", err)
		}
		for _, ev := range c.interleaved() {
			ref.event(ev.Site, ev.X)
		}
		refs = append(refs, ref)
	}
	m.refs[key] = refs
	return refs
}

// interleaved is the stream with the sites taking turns, each while it has
// events left.
func (c *matrixCase) interleaved() []core.Event {
	var evs []core.Event
	for j := 0; len(evs) < c.cfg.Events; j++ {
		for _, s := range c.streams {
			if j < len(s) {
				evs = append(evs, s[j])
			}
		}
	}
	return evs
}

// fatalf fails the case with its row, its seed and the command that reruns
// the row.
func (c *matrixCase) fatalf(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s, seed %d: %s\n%s", c.path, c.seed, fmt.Sprintf(format, args...), rerun(c.path))
}

// rerun is the command that runs subtest path of TestMatrix alone.
func rerun(path string) string {
	return "rerun: go test -run '^TestMatrix$/^" + strings.ReplaceAll(path, "/", "$/^") + "$' ./internal/core"
}

// siteEvents is site id's share of cfg.Events, split as the cluster splits
// it: site 0 takes ⌈HotSiteShare·Events⌉ and the rest split evenly over the
// other sites, or all of it splits evenly when HotSiteShare is 0.
func siteEvents(cfg cluster.Config, id int) int {
	events, k := cfg.Events, cfg.Sites
	if cfg.HotSiteShare > 0 && k > 1 {
		hot := min(int(math.Ceil(cfg.HotSiteShare*float64(events))), events)
		if id == 0 {
			return hot
		}
		events, k, id = events-hot, k-1, id-1
	}
	if id < events%k {
		return events/k + 1
	}
	return events / k
}

// check holds got to the reference and adds its scored counters and misses
// to the row's tallies: miss for the run, refMiss for the reference runs.
func (c *matrixCase) check(got outcome, refs []*reference, miss, refMiss *[2]int) {
	c.t.Helper()
	if got.events != int64(c.cfg.Events) {
		c.fatalf("%d events counted, want %d", got.events, c.cfg.Events)
	}
	net := c.model.Network()
	for i, row := range refs[0].cells {
		for j := range row {
			cell := &row[j]
			if got.counts != nil && got.counts[i][j] != cell.count {
				c.fatalf("variable %d cell %d: exact count %d, reference %d", i, j, got.counts[i][j], cell.count)
			}
			if cell.eps == 0 && got.rows[i][j] != float64(cell.count) {
				c.fatalf("variable %d cell %d: exact counter reads %v, reference count %d", i, j, got.rows[i][j], cell.count)
			}
			if !refs[0].past(cell) {
				continue
			}
			bound := cell.eps * float64(cell.count)
			miss[1]++
			if math.Abs(got.rows[i][j]-float64(cell.count)) > bound {
				miss[0]++
			}
			for _, ref := range refs {
				refMiss[1]++
				if math.Abs(ref.estimate(&ref.cells[i][j])-float64(cell.count)) > bound {
					refMiss[0]++
				}
			}
		}
	}
	if c.strategy == core.ExactMLE {
		// Lemma 5, for a tracker: 2n messages per event, the reference's
		// count. A cluster's windows and relays coalesce reports.
		if got.counts != nil && got.msgs != refs[0].msgs {
			c.fatalf("%d messages, want 2n per event: %d", got.msgs, refs[0].msgs)
		}
		return
	}
	gamma, err := core.CostBound(net, c.strategy, matrixEps)
	if err != nil {
		c.fatalf("%v", err)
	}
	bound := gamma * math.Sqrt(matrixSites) * math.Log(1/matrixDelta) * math.Log2(float64(got.events))
	if float64(got.msgs) > bound {
		c.fatalf("%d messages, above the bound CostBound·√k·ln(1/δ)·log₂ m = %.0f", got.msgs, bound)
	}
}

// checkTwin holds got bit for bit to its twin's estimates, and to the
// frame and message relation the row states.
func (c *matrixCase) checkTwin(r matrixRowSpec, got, twin outcome) {
	c.t.Helper()
	for i, row := range twin.rows {
		for j, w := range row {
			if g := got.rows[i][j]; math.Float64bits(g) != math.Float64bits(w) {
				c.fatalf("variable %d cell %d: estimate %v, twin %s %v", i, j, g, r.twin, w)
			}
		}
	}
	if err := r.relate(got, twin); err != nil {
		c.fatalf("against twin %s: %v", r.twin, err)
	}
}

// sameMessages: as many messages as the twin.
func sameMessages(got, twin outcome) error {
	if got.msgs != twin.msgs {
		return fmt.Errorf("%d messages, twin %d", got.msgs, twin.msgs)
	}
	return nil
}

// fewerFrames(f): no more messages than the twin, and at most 1/f of its
// frames (f = 0: frames unchecked).
func fewerFrames(f int64) func(got, twin outcome) error {
	return func(got, twin outcome) error {
		if got.msgs > twin.msgs || f*got.frames > twin.frames {
			return fmt.Errorf("%d messages in %d frames, twin %d in %d: want no more messages and at most 1/%d of the frames",
				got.msgs, got.frames, twin.msgs, twin.frames, f)
		}
		return nil
	}
}

// checkMissRate is the error check: the one-sided two-proportion z-test of
// the row's pooled miss rate against the reference's.
func checkMissRate(t *testing.T, path string, seeds int, miss, refMiss [2]int) {
	t.Helper()
	if miss[1] == 0 {
		return
	}
	rate, refRate := float64(miss[0])/float64(miss[1]), float64(refMiss[0])/float64(refMiss[1])
	pooled := float64(miss[0]+refMiss[0]) / float64(miss[1]+refMiss[1])
	se := math.Sqrt(pooled * (1 - pooled) * (1/float64(miss[1]) + 1/float64(refMiss[1])))
	t.Logf("miss rate %.4f of %d counters, reference %.4f", rate, miss[1], refRate)
	if rate-refRate > zCrit*se {
		t.Errorf("%s, seeds 1–%d: miss rate %.4f (%d of %d counters), reference %.4f (%d of %d): above it by more than %.1f standard errors\n%s",
			path, seeds, rate, miss[0], miss[1], refRate, refMiss[0], refMiss[1], zCrit, rerun(path))
	}
}

// --- the rows' runs ---

func (c *matrixCase) newTracker(build func(*bn.Network, core.Config) (*core.Tracker, error), shards int) *core.Tracker {
	tr, err := build(c.model.Network(), core.Config{Strategy: c.strategy, Eps: matrixEps, Delta: matrixDelta,
		Sites: c.cfg.Sites, Seed: c.seed, Shards: shards})
	if err != nil {
		c.fatalf("%v", err)
	}
	return tr
}

func trackerOutcome(tr *core.Tracker) outcome {
	net := tr.Network()
	o := outcome{rows: snapshotRows(tr.AcquireSnapshot()), msgs: tr.Messages().Total(), events: tr.Events()}
	for i := range net.Len() {
		j, k := net.Card(i), net.ParentCard(i)
		counts := make([]int64, j*k+k)
		for c := range j * k {
			counts[c], _ = tr.ExactCount(i, c%j, c/j)
		}
		for pidx := range k {
			_, counts[j*k+pidx] = tr.ExactCount(i, 0, pidx)
		}
		o.counts = append(o.counts, counts)
	}
	return o
}

func snapshotRows(s *core.Snapshot) [][]float64 {
	defer s.Release()
	rows := make([][]float64, s.Network().Len())
	for i := range rows {
		rows[i] = slices.Clone(s.Estimates(i))
	}
	return rows
}

// trackerSequential: per-event Update on the sequential engine.
func trackerSequential(c *matrixCase) outcome {
	tr := c.newTracker(core.NewTracker, 0)
	for _, ev := range c.interleaved() {
		tr.Update(ev.Site, ev.X)
	}
	return trackerOutcome(tr)
}

// trackerBatched: UpdateEvents in 77-event batches on one stripe.
func trackerBatched(c *matrixCase) outcome {
	tr, evs := c.newTracker(core.NewTracker, 1), c.interleaved()
	for lo := 0; lo < len(evs); lo += 77 {
		tr.UpdateEvents(evs[lo:min(lo+77, len(evs))])
	}
	return trackerOutcome(tr)
}

// trackerIngest: an Ingest pump on one stripe.
func trackerIngest(c *matrixCase) outcome {
	tr, evs := c.newTracker(core.NewTracker, 1), c.interleaved()
	ch := make(chan core.Event, 64)
	go func() {
		for _, ev := range evs {
			ch <- ev
		}
		close(ch)
	}()
	if n, err := tr.Ingest(context.Background(), ch); err != nil || n != int64(len(evs)) {
		c.fatalf("Ingest consumed %d of %d events: %v", n, len(evs), err)
	}
	return trackerOutcome(tr)
}

// trackerStriped: 2–5 stripes fed by 3–5 writers under a seeded random
// schedule; under -race this is the striped engine's data-race probe.
func trackerStriped(c *matrixCase) outcome {
	tr := c.newTracker(core.NewTracker, 2+int(c.seed%4))
	replayRandomSchedule(tr, c.interleaved(), 3+int(c.seed%3), c.seed*131+5)
	return trackerOutcome(tr)
}

// trackerRestored: half the stream, SaveState, LoadState into a new
// tracker, the other half.
func trackerRestored(c *matrixCase) outcome {
	first, evs := c.newTracker(core.NewTracker, 0), c.interleaved()
	half := len(evs) / 2
	for _, ev := range evs[:half] {
		first.Update(ev.Site, ev.X)
	}
	var buf bytes.Buffer
	if err := first.SaveState(&buf); err != nil {
		c.fatalf("%v", err)
	}
	tr := c.newTracker(core.NewTracker, 0)
	if err := tr.LoadState(&buf); err != nil {
		c.fatalf("%v", err)
	}
	for _, ev := range evs[half:] {
		tr.Update(ev.Site, ev.X)
	}
	return trackerOutcome(tr)
}

// oneWayTracker: the one-way kind on a sequential tracker, fed each site's
// stream in turn with the generator reseeded as that site's. A site's
// decisions depend only on its own counts and draws, so this reproduces the
// sites that ran at once.
func oneWayTracker(c *matrixCase) outcome {
	tr := c.newTracker(core.NewOneWayTracker, 0)
	for site, evs := range c.streams {
		tr.Reseed(c.seed ^ (uint64(site) * 0x9e3779b97f4a7c15))
		for _, ev := range evs {
			tr.Update(site, ev.X)
		}
	}
	o := trackerOutcome(tr)
	if down := tr.Messages().CoordToSite; down != 0 {
		c.fatalf("one-way tracker sent %d coordinator → site messages", down)
	}
	return o
}

func clusterOutcome(res cluster.Result, co *cluster.Coordinator) outcome {
	return outcome{rows: snapshotRows(co.AcquireSnapshot()), msgs: res.Stats.Updates, frames: res.Stats.Frames, events: res.Stats.Events}
}

// clusterRun: RunLocal, per-event unless set changes the config. A run
// learns a structure exactly when structure learning is on.
func clusterRun(set func(*cluster.Config)) func(c *matrixCase) outcome {
	return func(c *matrixCase) outcome {
		cfg := c.cfg
		if set != nil {
			set(&cfg)
		}
		res, co, err := cluster.RunLocal(cfg)
		if err != nil {
			c.fatalf("%v", err)
		}
		learning := cfg.StructBatchEvents > 0
		_, epoch, ok := co.LearnedStructure()
		if ok != learning || learning && epoch == 0 {
			c.fatalf("learned structure %v at epoch %d with structure learning %v", ok, epoch, learning)
		}
		snap, err := co.AcquireLearnedSnapshot()
		if (err == nil) != learning {
			c.fatalf("AcquireLearnedSnapshot: %v with structure learning %v", err, learning)
		}
		if err == nil {
			defer snap.Release()
			if snap.StructureEpoch() != epoch {
				c.fatalf("learned snapshot at epoch %d, structure at %d", snap.StructureEpoch(), epoch)
			}
		}
		return clusterOutcome(res, co)
	}
}

// clusterRestored: a finished run checkpointed and restored into a new
// coordinator, whose Serve returns at once.
func clusterRestored(c *matrixCase) outcome {
	_, done, err := cluster.RunLocal(c.cfg)
	if err != nil {
		c.fatalf("%v", err)
	}
	var buf bytes.Buffer
	if err := done.WriteCheckpoint(&buf); err != nil {
		c.fatalf("%v", err)
	}
	co, err := cluster.NewCoordinator(c.cfg, "127.0.0.1:0")
	if err != nil {
		c.fatalf("%v", err)
	}
	defer co.Close()
	if err := co.RestoreCheckpoint(&buf); err != nil {
		c.fatalf("%v", err)
	}
	res, err := co.Serve()
	if err != nil {
		c.fatalf("%v", err)
	}
	return clusterOutcome(res, co)
}

// relayTree: depth tiers of relays between the sites and the coordinator.
// Depth 1 is RunLocalTree at branching 4 (one relay fronting the four
// sites) with a 200 ms flush, so a flush is mostly triggered by a frame
// from every child; deeper trees chain one relay per tier above it.
func relayTree(depth int) func(c *matrixCase) outcome {
	return func(c *matrixCase) outcome {
		if depth == 1 {
			res, co, _, err := cluster.RunLocalTree(c.cfg, 4, 200*time.Millisecond)
			if err != nil {
				c.fatalf("%v", err)
			}
			return clusterOutcome(res, co)
		}
		co, err := cluster.NewCoordinator(c.cfg, "127.0.0.1:0")
		if err != nil {
			c.fatalf("%v", err)
		}
		defer co.Close()
		var relays []*cluster.Relay
		var wg sync.WaitGroup
		defer func() {
			for _, r := range relays {
				r.Close()
			}
			wg.Wait()
		}()
		parent := co.Addr()
		for id := range depth {
			r, err := cluster.NewRelay(cluster.RelayConfig{ID: uint32(id), Parent: parent}, "127.0.0.1:0")
			if err != nil {
				c.fatalf("%v", err)
			}
			relays = append(relays, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Run()
			}()
			parent = r.Addr()
		}
		type siteRun struct {
			stats cluster.Stats
			err   error
		}
		runs := make(chan siteRun, c.cfg.Sites)
		for id := range c.cfg.Sites {
			go func() {
				st, err := cluster.NewSite(uint32(id), parent).Run()
				runs <- siteRun{st, err}
			}()
		}
		res, serveErr := co.Serve()
		for range c.cfg.Sites {
			if s := <-runs; s.err != nil || s.stats != res.Stats {
				c.fatalf("site stats %+v (%v), coordinator %+v", s.stats, s.err, res.Stats)
			}
		}
		if serveErr != nil {
			c.fatalf("%v", serveErr)
		}
		return clusterOutcome(res, co)
	}
}

// replayRandomSchedule ingests evs into tr from workers goroutines under a
// schedule derived from seed: the stream is cut into randomly sized chunks
// dealt to random workers, and each worker replays its chunks in order
// through a randomly chosen entry point per chunk — per-event Update,
// UpdateEvents, or UpdateBatch when the chunk is single-site — with
// scheduling-point yields sprinkled in. Exact counts do not depend on the
// schedule; randomized estimates and message tallies do.
func replayRandomSchedule(tr *core.Tracker, evs []core.Event, workers int, seed uint64) {
	rng := bn.NewRNG(seed)
	chunks := make([][][]core.Event, workers)
	for lo := 0; lo < len(evs); {
		hi := min(lo+1+rng.Intn(48), len(evs))
		w := rng.Intn(workers)
		chunks[w] = append(chunks[w], evs[lo:hi])
		lo = hi
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(wrng *bn.RNG) {
			defer wg.Done()
			for _, chunk := range chunks[w] {
				switch choice := wrng.Intn(3); {
				case choice == 0:
					for _, ev := range chunk {
						tr.Update(ev.Site, ev.X)
					}
				case choice == 1 && singleSite(chunk):
					xs := make([][]int, len(chunk))
					for i := range chunk {
						xs[i] = chunk[i].X
					}
					tr.UpdateBatch(chunk[0].Site, xs)
				default:
					tr.UpdateEvents(chunk)
				}
				if wrng.Intn(4) == 0 {
					runtime.Gosched()
				}
			}
		}(bn.NewRNG(seed ^ (uint64(w)*0x9e3779b97f4a7c15 + 1)))
	}
	wg.Wait()
}

func singleSite(evs []core.Event) bool {
	for _, ev := range evs {
		if ev.Site != evs[0].Site {
			return false
		}
	}
	return true
}
