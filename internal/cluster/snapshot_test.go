package cluster

import (
	"math"
	"sync"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// snapshotProducer is one place core.Snapshots come from: acquire returns the
// current one (an error while the producer has none yet), ingest runs the
// producer's whole training run and returns when it is over.
type snapshotProducer struct {
	acquire func() (*core.Snapshot, error)
	ingest  func() error
	// query is the producer's own QueryProb, where it has one.
	query func(x []int) float64
	// learned producers publish a structure epoch; everyone else reports 0.
	learned bool
}

// snapshotProducers builds the three producers over alarm, none started.
func snapshotProducers(t *testing.T) map[string]snapshotProducer {
	t.Helper()
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25,
		Sites: 3, Events: 12000, StreamSeed: 43, SiteBatchEvents: 64,
	}
	newCo := func(cfg Config) *Coordinator {
		co, err := NewCoordinator(cfg, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { co.Close() })
		return co
	}
	run := func(co *Coordinator) func() error {
		return func() error {
			_, err := runLocal(co, func(i int) (Stats, error) { return NewSite(uint32(i), co.Addr()).Run() })
			return err
		}
	}
	out := make(map[string]snapshotProducer)

	model, err := netgen.ModelByName(cfg.NetName)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: cfg.Strategy, Eps: cfg.Eps, Delta: cfg.Delta, Sites: cfg.Sites, Seed: 5, Shards: 2, Smoothing: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["tracker"] = snapshotProducer{
		acquire: func() (*core.Snapshot, error) { return tr.AcquireSnapshot(), nil },
		ingest: func() error {
			training := stream.NewTraining(model, stream.NewUniformAssigner(cfg.Sites, 2), cfg.StreamSeed)
			for i := 0; i < cfg.Events; i++ {
				tr.Update(training.Next())
			}
			return nil
		},
		query: tr.QueryProb,
	}

	co := newCo(cfg)
	out["coordinator"] = snapshotProducer{
		acquire: func() (*core.Snapshot, error) { return co.AcquireSnapshot(), nil },
		ingest:  run(co),
		query:   co.QueryProb,
	}

	lcfg := cfg
	lcfg.StructBatchEvents, lcfg.StructWindowEvents = 128, 6000
	lco := newCo(lcfg)
	out["learned-coordinator"] = snapshotProducer{
		acquire: lco.AcquireLearnedSnapshot,
		ingest:  run(lco),
		learned: true,
	}
	return out
}

// TestSnapshotContract is the one contract every producer of a core.Snapshot
// keeps, checked on each of them: versions never go backwards while ingest
// runs underneath, a held snapshot does not change, every factor is the
// pre-normalisation cell its Model was built from, QueryProb is the
// ascending-variable product of those factors bit for bit, QuerySubsetProb
// their product over an ancestral closure in set order, Classify the argmax
// of the log sum over the target's Markov blanket, the structure
// epoch is 0 unless the structure is learned, and releasing every acquisition
// leaves the producer able to build the next snapshot.
func TestSnapshotContract(t *testing.T) {
	const eps = 0.1 // the producers' approximation budget: a row of ratios sums to 1 ± eps
	for name, p := range snapshotProducers(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			var ingestErr error
			done := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				ingestErr = p.ingest()
			}()

			// Acquire as fast as the producer allows while it ingests, holding
			// the first snapshot across the whole run.
			var held *core.Snapshot
			var heldX []int
			var heldP float64
			var last uint64
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				snap, err := p.acquire()
				if err != nil {
					continue // a learned producer before its first tree
				}
				if v := snap.Version(); v < last {
					t.Fatalf("version went backwards under ingest: %d after %d", v, last)
				} else {
					last = v
				}
				if held == nil {
					held = snap
					heldX = stream.RandomAssignment(snap.Network(), bn.NewRNG(7), nil)
					heldP = snap.QueryProb(heldX)
					continue
				}
				snap.Release()
			}
			wg.Wait()
			if ingestErr != nil {
				t.Fatal(ingestErr)
			}
			if held == nil {
				t.Fatal("no snapshot was ever acquired")
			}
			if got := held.QueryProb(heldX); math.Float64bits(got) != math.Float64bits(heldP) {
				t.Errorf("held snapshot changed under ingest: QueryProb %v, was %v", got, heldP)
			}
			held.Release()

			// Every acquisition has been released; the quiescent producer must
			// hand out a current snapshot that keeps the read contract.
			snap, err := p.acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			if snap.Version() < last {
				t.Errorf("final version %d below %d seen under ingest", snap.Version(), last)
			}
			if epoch := snap.StructureEpoch(); p.learned != (epoch > 0) {
				t.Errorf("structure epoch = %d with learned = %v", epoch, p.learned)
			}
			netw := snap.Network()
			m, err := snap.Model()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < netw.Len(); i++ {
				j := netw.Card(i)
				for pidx := 0; pidx < netw.ParentCard(i); pidx++ {
					sum := 0.0
					for v := 0; v < j; v++ {
						f := snap.Factor(i, v, pidx)
						if f < 0 || f > 1+eps {
							t.Fatalf("factor(%d,%d,%d) = %v out of range", i, v, pidx, f)
						}
						sum += f
					}
					if sum > 0 && math.Abs(sum-1) > eps {
						t.Fatalf("factors of var %d pidx %d sum to %v", i, pidx, sum)
					}
					for v := 0; v < j; v++ {
						want := 1 / float64(j)
						if sum > 0 {
							want = snap.Factor(i, v, pidx) / sum
						}
						if got := m.CPD(i).P(v, pidx); got != want {
							t.Fatalf("model CPD(%d,%d,%d) = %v, normalized factor %v", i, v, pidx, got, want)
						}
					}
				}
			}
			rng := bn.NewRNG(11)
			var x []int
			for q := 0; q < 50; q++ {
				x = stream.RandomAssignment(netw, rng, x)
				want := 1.0
				for i := 0; i < netw.Len(); i++ {
					want *= snap.Factor(i, x[i], netw.ParentIndex(i, x))
				}
				if got := snap.QueryProb(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("QueryProb(%v) = %v, ascending product %v", x, got, want)
				}
				if p.query != nil {
					if got := p.query(x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("producer QueryProb(%v) = %v, snapshot product %v", x, got, want)
					}
				}
				set := netw.AncestralClosure([]int{q % netw.Len()})
				want = 1.0
				for _, i := range set {
					want *= snap.Factor(i, x[i], netw.ParentIndex(i, x))
				}
				if got := snap.QuerySubsetProb(set, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("QuerySubsetProb(%v, %v) = %v, product in set order %v", set, x, got, want)
				}
				target := 7 * q % netw.Len()
				if got, want := snap.Classify(target, x), blanketArgmax(snap, target, x); got != want {
					t.Fatalf("Classify(%d, %v) = %d, log-sum argmax %d", target, x, got, want)
				}
			}
		})
	}
}

// blanketArgmax is Classify's answer worked out from Factor: for each value
// y of the target, ascending, the sum of the logs of the target's factor and
// its children's (a zero factor adds -Inf), and the first y with the largest
// sum.
func blanketArgmax(snap *core.Snapshot, target int, x []int) int {
	netw := snap.Network()
	y := append([]int(nil), x...)
	logOf := func(p float64) float64 {
		if p <= 0 {
			return math.Inf(-1)
		}
		return math.Log(p)
	}
	best, bestScore := 0, math.Inf(-1)
	for v := 0; v < netw.Card(target); v++ {
		y[target] = v
		score := logOf(snap.Factor(target, v, netw.ParentIndex(target, y)))
		for _, c := range netw.Children(target) {
			score += logOf(snap.Factor(c, y[c], netw.ParentIndex(c, y)))
		}
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}
