package experiments

import (
	"fmt"
	"math"
	"sync"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// trackingSpec drives one simulated monitoring run over a model: several
// trackers (EXACTMLE is always included as the MLE reference) consume the
// same event sequence, and at each checkpoint the probability-estimation
// errors and message counts are recorded.
type trackingSpec struct {
	model       *bn.Model
	strategies  []core.Strategy // approximate strategies to run
	checkpoints []int           // ascending
	eps, delta  float64
	sites       int
	queries     int
	minProb     float64
	runs        int
	seed        uint64
}

// trackingResult pools per-query errors across runs and reports the median
// message count across runs, following the paper ("report the median value
// from five independent runs").
type trackingResult struct {
	checkpoints []int
	// errTruth[strategy][ci] pools |P̃-P*|/P* over queries and runs.
	errTruth map[core.Strategy][][]float64
	// errMLE[strategy][ci] pools |P̃-P̂|/P̂ (P̂ from EXACTMLE on the same
	// stream); meaningless (empty) for ExactMLE itself.
	errMLE map[core.Strategy][][]float64
	// messages[strategy][ci] is the median total message count across runs.
	messages map[core.Strategy][]float64
}

func (s trackingSpec) allStrategies() []core.Strategy {
	out := []core.Strategy{core.ExactMLE}
	for _, st := range s.strategies {
		if st != core.ExactMLE {
			out = append(out, st)
		}
	}
	return out
}

func runTracking(s trackingSpec) (*trackingResult, error) {
	if len(s.checkpoints) == 0 {
		return nil, fmt.Errorf("experiments: no checkpoints")
	}
	for i := 1; i < len(s.checkpoints); i++ {
		if s.checkpoints[i] <= s.checkpoints[i-1] {
			return nil, fmt.Errorf("experiments: checkpoints must be ascending")
		}
	}
	if s.runs < 1 {
		s.runs = 1
	}
	all := s.allStrategies()
	res := &trackingResult{
		checkpoints: s.checkpoints,
		errTruth:    map[core.Strategy][][]float64{},
		errMLE:      map[core.Strategy][][]float64{},
		messages:    map[core.Strategy][]float64{},
	}
	perRunMsgs := map[core.Strategy][][]float64{} // [ci][run]
	for _, st := range all {
		res.errTruth[st] = make([][]float64, len(s.checkpoints))
		res.errMLE[st] = make([][]float64, len(s.checkpoints))
		perRunMsgs[st] = make([][]float64, len(s.checkpoints))
	}

	net := s.model.Network()
	for run := 0; run < s.runs; run++ {
		trackers := make(map[core.Strategy]*core.Tracker, len(all))
		for _, st := range all {
			cfg := core.Config{
				Strategy: st, Eps: s.eps, Delta: s.delta, Sites: s.sites,
				Seed: s.seed + uint64(run)*1001 + uint64(st),
			}
			tr, err := core.NewTracker(net, cfg)
			if err != nil {
				return nil, err
			}
			trackers[st] = tr
		}
		queries, err := stream.GenQueries(s.model, stream.QueryOptions{
			Count: s.queries, MinProb: s.minProb, Seed: s.seed + 31*uint64(run),
		})
		if err != nil {
			return nil, err
		}
		assign := stream.NewUniformAssigner(s.sites, s.seed+77*uint64(run))
		training := stream.NewTraining(s.model, assign, s.seed+131*uint64(run))

		exact := trackers[core.ExactMLE]
		processed := 0
		// Chunked fan-out: one goroutine per tracker replays the same shared
		// event slice, so the strategies ingest in parallel while each
		// tracker still sees the exact sequential event order (results are
		// bit-identical to feeding the trackers one event at a time). The
		// chunk's event buffers are allocated once and refilled in place —
		// wg.Wait guarantees no tracker still reads them.
		const chunkSize = 2048
		chunk := make([]core.Event, chunkSize)
		for i := range chunk {
			chunk[i].X = make([]int, net.Len())
		}
		for ci, target := range s.checkpoints {
			for processed < target {
				n := min(chunkSize, target-processed)
				for j := 0; j < n; j++ {
					site, x := training.Next()
					chunk[j].Site = site
					copy(chunk[j].X, x)
				}
				var wg sync.WaitGroup
				for _, tr := range trackers {
					wg.Add(1)
					go func(tr *core.Tracker) {
						defer wg.Done()
						tr.UpdateEvents(chunk[:n])
					}(tr)
				}
				wg.Wait()
				processed += n
			}
			for _, st := range all {
				tr := trackers[st]
				perRunMsgs[st][ci] = append(perRunMsgs[st][ci], float64(tr.Messages().Total()))
				for _, q := range queries {
					est := tr.QuerySubsetProb(q.Set, q.X)
					res.errTruth[st][ci] = append(res.errTruth[st][ci], relErr(est, q.Truth))
					if st != core.ExactMLE {
						ref := exact.QuerySubsetProb(q.Set, q.X)
						if ref > 0 {
							res.errMLE[st][ci] = append(res.errMLE[st][ci], relErr(est, ref))
						}
					}
				}
			}
		}
	}
	for _, st := range all {
		res.messages[st] = make([]float64, len(s.checkpoints))
		for ci := range s.checkpoints {
			res.messages[st][ci] = median(perRunMsgs[st][ci])
		}
	}
	return res, nil
}

// relErr is the relative error |est-ref|/ref. Callers pass a positive ref:
// query generation guarantees it for truth values, and runTracking skips test
// events the EXACTMLE reference gives probability 0.
func relErr(est, ref float64) float64 { return math.Abs(est-ref) / ref }

// spec is the paper's tracking setup at the session's parameters: the sweep
// Figs. 1–6 share. The other tracking experiments vary one or two fields of it.
func (s *Session) spec(m *bn.Model, strategies ...core.Strategy) trackingSpec {
	p := s.p
	return trackingSpec{
		model: m, strategies: strategies, checkpoints: p.Sizes,
		eps: p.Eps, delta: p.Delta, sites: p.Sites, queries: p.Queries,
		minProb: p.MinProb, runs: p.Runs, seed: p.Seed,
	}
}

// paperSweep is the shared sweep of Figs. 1–6 on one Table I network: every
// paper strategy over p.Sizes with p.Queries test events, run on first use
// and kept for the session. Trackers are seeded per run and strategy and
// never see the test events, so a figure that reads fewer strategies or only
// the message tallies reads the same numbers its own narrower run would give.
func (s *Session) paperSweep(network string) (*trackingResult, error) {
	if res, ok := s.tracking[network]; ok {
		return res, nil
	}
	m, err := netgen.ModelByName(network)
	if err != nil {
		return nil, err
	}
	res, err := runTracking(s.spec(m, paperStrategies...))
	if err != nil {
		return nil, err
	}
	s.tracking[network] = res
	return res, nil
}

// lastPoint runs spec to the single checkpoint p.Events and returns the
// median message count there, per strategy: what the single-point
// experiments report.
func (s *Session) lastPoint(spec trackingSpec) (msgs func(core.Strategy) float64, err error) {
	spec.checkpoints = []int{s.p.Events}
	res, err := runTracking(spec)
	if err != nil {
		return nil, err
	}
	return func(st core.Strategy) float64 { return messages(res, st, 0) }, nil
}
