package cluster

import (
	"fmt"
	"sync"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/stream"
)

// startSites runs run(i) for each of n sites on its own goroutine. The
// returned wait blocks until all of them returned and yields their results,
// or the lowest-numbered site's error.
func startSites[T any](n int, run func(i int) (T, error)) (wait func() ([]T, error)) {
	outs, errs := make([]T, n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = run(i)
		}()
	}
	return func() ([]T, error) {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("cluster: site %d: %w", i, err)
			}
		}
		return outs, nil
	}
}

// runLocal is the skeleton every single-coordinator launcher shares: start
// the sites (runSite is how one site runs — directly, under churn, through a
// relay), serve the run to completion — under the mid-run query mix when
// Config.LiveQueryMicros is set — collect the sites, and cross-check the
// closing stats each site received against the coordinator's own.
func runLocal(co *Coordinator, runSite func(i int) (Stats, error)) (Result, error) {
	wait := startSites(co.cfg.Sites, runSite)

	// The mid-run query mix: hammer the live query paths until Serve is
	// done. Queries race ingestion by design — that is the scenario the
	// striped snapshot machinery exists for.
	var queries int64
	var qwg sync.WaitGroup
	stop := make(chan struct{})
	if co.cfg.LiveQueryMicros > 0 {
		interval := time.Duration(co.cfg.LiveQueryMicros) * time.Microsecond
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			queries = LiveQueryMix(co, co.cfg.StreamSeed^0x11fe, interval, stop)
		}()
	}

	res, serveErr := co.Serve()
	close(stop)
	qwg.Wait()
	stats, err := wait()
	if serveErr != nil {
		return Result{}, serveErr
	}
	if err != nil {
		return Result{}, err
	}
	for i, st := range stats {
		if st != res.Stats {
			return Result{}, fmt.Errorf("cluster: site %d saw stats %+v, coordinator %+v", i, st, res.Stats)
		}
	}
	res.LiveQueries = queries
	return res, nil
}

// RunLocal executes a full cluster run on loopback TCP: it starts a
// coordinator on an ephemeral port, launches cfg.Sites site goroutines (each
// with its own TCP connection), and returns the run result together with the
// coordinator (closed, still usable for queries). Sites generate the same
// per-site sub-streams as the in-process parallel engine
// (stream.NewSiteTrainings with seed StreamSeed+id), so a cluster run and a
// sharded in-process run over the same StreamSeed ingest identical events.
//
// With Config.LiveQueryMicros set, the local launchers also drive a mid-run
// query mix: a dedicated goroutine issues QueryProb on random assignments
// (every eighth probe an EstimatedModel) against the coordinator for as long
// as the sites stream — exercising the live snapshot-query path, the paper's
// query-at-any-time model. The number of queries issued is returned in
// Result.LiveQueries.
//
// This is the harness behind the Figure 7/8 experiments and the cluster
// example; cmd/bncluster runs the same roles as separate processes.
func RunLocal(cfg Config) (Result, *Coordinator, error) {
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return Result{}, nil, err
	}
	defer co.Close()
	res, err := runLocal(co, func(i int) (Stats, error) {
		return NewSite(uint32(i), co.Addr()).Run()
	})
	if err != nil {
		return Result{}, nil, err
	}
	return res, co, nil
}

// RunLocalTree is RunLocal with a depth-2 aggregation tree between the sites
// and the coordinator: ⌈Sites/branching⌉ relays each front a contiguous chunk
// of up to branching sites, fold their frames locally, and ship coalesced
// grouped frames upstream — so the coordinator's frame rate divides by the
// branching factor while the folded per-site vectors (monotone counts,
// idempotent max-merge) keep every final estimate bit-identical to a flat
// RunLocal of the same Config. flush is the relays' FlushInterval (0 selects
// the default); the returned relays are already closed.
func RunLocalTree(cfg Config, branching int, flush time.Duration) (Result, *Coordinator, []*Relay, error) {
	if branching < 1 {
		return Result{}, nil, nil, fmt.Errorf("cluster: tree branching = %d, want >= 1", branching)
	}
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return Result{}, nil, nil, err
	}
	defer co.Close()

	relays := make([]*Relay, 0, (cfg.Sites+branching-1)/branching)
	var rwg sync.WaitGroup
	defer func() {
		for _, r := range relays {
			r.Close()
		}
		rwg.Wait()
	}()
	for i := 0; i < cap(relays); i++ {
		r, err := NewRelay(RelayConfig{ID: uint32(i), Parent: co.Addr(), FlushInterval: flush}, "127.0.0.1:0")
		if err != nil {
			return Result{}, nil, nil, err
		}
		relays = append(relays, r)
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			r.Run()
		}()
	}
	res, err := runLocal(co, func(i int) (Stats, error) {
		return NewSite(uint32(i), relays[i/branching].Addr()).Run()
	})
	if err != nil {
		return Result{}, nil, nil, err
	}
	return res, co, relays, nil
}

// LiveQueryMix drives the standard mid-run query workload against a live
// coordinator until stop closes, returning the number of queries issued: a
// QueryProb on a fresh random assignment every interval, with every eighth
// probe an EstimatedModel materialization. The answers come from the
// version-validated snapshot path and deliberately race ingestion — the
// paper's query-at-any-time model. RunLocal runs this when
// Config.LiveQueryMicros is set; cmd/bncluster's coordinator role uses it
// to serve queries while remote sites stream.
func LiveQueryMix(co *Coordinator, seed uint64, interval time.Duration, stop <-chan struct{}) int64 {
	rng := bn.NewRNG(seed)
	var x []int
	var n int64
	for i := 0; ; i++ {
		select {
		case <-stop:
			return n
		default:
		}
		x = stream.RandomAssignment(co.Network(), rng, x)
		if i%8 == 7 {
			_, _ = co.EstimatedModel()
		} else {
			_ = co.QueryProb(x)
		}
		n++
		time.Sleep(interval)
	}
}
