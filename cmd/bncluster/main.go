// Command bncluster runs the live distributed-monitoring system over TCP.
// The same binary plays four roles:
//
//	bncluster -role coord -addr :7070 -net alarm -strategy nonuniform -sites 4 -events 500000
//	bncluster -role site  -addr host:7070 -id 0       (one per site, ids 0..k-1)
//	bncluster -role relay -addr :7071 -parent host:7070 -relay 0
//	bncluster -role local -net alarm -sites 4 -events 500000
//
// The coordinator accepts k sites, distributes the run configuration, and
// prints runtime, throughput and message statistics when the stream is
// exhausted — the measurements behind Figures 7 and 8 of the paper. The
// "local" role runs everything in one process over loopback for convenience.
//
// Aggregation tree (see the README's Aggregation tree section): a relay
// (-role relay) is a mid-tier node between the sites and the coordinator.
// Sites dial it exactly as they would the coordinator, it folds their frames
// locally, and it ships one coalesced frame per cadence to -parent —
// dividing the root coordinator's frame rate by the branching factor with
// bit-identical final estimates. Relays stack: a relay's -parent may be
// another relay. -tree N runs a depth-2 tree with branching N inside the
// local role.
//
// -batch switches the sites to protocol version 2 (one coalesced frame per
// batching window instead of one frame per triggering event), and -live
// drives a mid-run query mix against the coordinator while the sites stream
// — the paper's query-at-any-time model, answered from the live snapshot
// path.
//
// The cluster is fault tolerant: a site whose connection drops reconnects
// with the protocol-v3 resume handshake and replays its decided counts, and
// a killed site process can simply be restarted with the same id.
// -serve attaches the HTTP query front end (internal/serve) to the
// coordinator: in the coord role it serves live while frames stream in, in
// the local role it serves the final estimates after the run. -probe
// "name=value,..." prints one marginal answered through that HTTP endpoint
// — the smoke-test hook.
//
// -checkpoint makes the coordinator write its run state atomically every
// -checkpoint-every received frames; after a coordinator crash, restart it
// with the same flags plus -resume to restore the last checkpoint and let
// the sites re-resume against it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distbayes/cmd/internal/probe"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/serve"
)

func main() {
	var (
		role     = flag.String("role", "local", "coord | site | relay | local")
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address (coord, relay), or the coordinator or relay a site dials")
		id       = flag.Uint("id", 0, "site id (role=site)")
		netName  = flag.String("net", "alarm", "network name (see bngen -list)")
		strategy = flag.String("strategy", "nonuniform", "exact | baseline | uniform | nonuniform")
		eps      = flag.Float64("eps", 0.1, "approximation budget")
		delta    = flag.Float64("delta", 0.25, "failure probability")
		sites    = flag.Int("sites", 4, "number of sites k")
		events   = flag.Int("events", 100000, "total training events")
		seed     = flag.Uint64("seed", 1, "stream seed")
		latency  = flag.Uint("latency", 0, "artificial per-frame latency at sites (microseconds)")
		batch    = flag.Int("batch", 0, "site batching window in events (0 = one frame per triggering event)")
		live     = flag.Uint("live", 0, "mid-run query interval in microseconds (0 = no live query mix)")
		hot      = flag.Float64("hot", 0, "fraction of the stream routed to site 0 (skewed-routing regime)")
		ckpt     = flag.String("checkpoint", "", "coordinator checkpoint file (role=coord; enables periodic checkpointing)")
		ckptN    = flag.Int64("checkpoint-every", 10000, "checkpoint cadence in received frames (with -checkpoint)")
		resume   = flag.Bool("resume", false, "restore the coordinator from -checkpoint before serving (role=coord)")
		serveOn  = flag.String("serve", "", "attach an HTTP query server on this address (coord and local roles; use :0 for an ephemeral port)")
		serveCC  = flag.Int("serve-concurrency", serve.DefaultMaxConcurrent, "query-server admission limit (negative = unlimited)")
		serveDeg = flag.Duration("serve-degraded-age", serve.DefaultMaxDegradedAge, "query-server degraded-mode staleness ceiling (negative = disable degraded serving)")
		probe    = flag.String("probe", "", "after the run, print P[name=value,...] via the query server's /v1/marginal (requires -serve)")
		probeTO  = flag.Duration("probe-timeout", 10*time.Second, "deadline for the -probe query; a wedged server fails the probe instead of hanging it")

		structBatch  = flag.Int("struct-batch", 0, "online structure learning: sites ship windowed pairwise statistics every N events (0 = off)")
		structWin    = flag.Int64("struct-window", 0, "structure-learning MI window in events (0 = events/4)")
		structBlocks = flag.Int("struct-blocks", 0, "structure-learning window blocks (0 = default)")
		driftNet     = flag.String("drift-net", "", "switch the generating network to this one mid-stream (same variables; the drift scenario)")
		driftAfter   = flag.Float64("drift-after", 0, "fraction of each site's stream after which -drift-net takes over (0 = 0.5)")
		serveLearned = flag.Bool("serve-learned", false, "serve queries from the learned structure instead of the base network (requires -struct-batch and -serve)")

		relayID = flag.Uint("relay", 0, "relay id (role=relay)")
		parent  = flag.String("parent", "", "relay upstream address: the coordinator or another relay (role=relay)")
		flush   = flag.Duration("flush", 0, "relay upstream flush staleness bound (role=relay; 0 = default)")
		tree    = flag.Int("tree", 0, "run a depth-2 aggregation tree with this branching factor (role=local; 0 = flat)")
	)
	flag.Parse()

	st, err := core.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	cfg := cluster.Config{
		NetName:         *netName,
		CPTSeed:         *seed + 0xC0DE,
		Strategy:        st,
		Eps:             *eps,
		Delta:           *delta,
		Sites:           *sites,
		Events:          *events,
		StreamSeed:      *seed,
		LatencyMicros:   uint32(*latency),
		SiteBatchEvents: *batch,
		LiveQueryMicros: uint32(*live),
		HotSiteShare:    *hot,

		StructBatchEvents:  *structBatch,
		StructWindowEvents: *structWin,
		StructWindowBlocks: *structBlocks,
		DriftNetName:       *driftNet,
		DriftAfter:         *driftAfter,
	}
	if *serveLearned && (*structBatch == 0 || *serveOn == "") {
		fatal(fmt.Errorf("-serve-learned requires -struct-batch and -serve"))
	}

	if *ckpt != "" {
		cfg.CheckpointPath = *ckpt
		cfg.CheckpointEveryFrames = *ckptN
	}

	switch *role {
	case "coord":
		co, err := cluster.NewCoordinator(cfg, *addr)
		if err != nil {
			fatal(err)
		}
		defer co.Close()
		if *resume {
			if *ckpt == "" {
				fatal(fmt.Errorf("-resume requires -checkpoint"))
			}
			if err := co.RestoreCheckpointFile(*ckpt); err != nil {
				fatal(err)
			}
			fmt.Printf("restored checkpoint %s\n", *ckpt)
		}
		fmt.Printf("coordinator listening on %s, waiting for %d sites\n", co.Addr(), cfg.Sites)
		srv := attachServer(co, *serveOn, *serveCC, *serveDeg, *serveLearned)
		// The query mix runs against the coordinator while Serve ingests:
		// the standalone-role mirror of RunLocal's LiveQueryMicros driver.
		stop := make(chan struct{})
		queries := make(chan int64, 1)
		if *live > 0 {
			go func() {
				queries <- cluster.LiveQueryMix(co, cfg.StreamSeed^0x11fe,
					time.Duration(*live)*time.Microsecond, stop)
			}()
		}
		res, err := co.Serve()
		close(stop)
		if *live > 0 {
			res.LiveQueries = <-queries
		}
		if err != nil {
			fatal(err)
		}
		report(res)
		reportStruct(co)
		finishServer(srv, *probe, *probeTO)
	case "site":
		st, err := cluster.NewSite(uint32(*id), *addr).Run()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("site %d done: cluster stats %+v\n", *id, st)
	case "relay":
		if *parent == "" {
			fatal(fmt.Errorf("role=relay requires -parent"))
		}
		r, err := cluster.NewRelay(cluster.RelayConfig{
			ID:            uint32(*relayID),
			Parent:        *parent,
			FlushInterval: *flush,
		}, *addr)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		fmt.Printf("relay %d listening on %s, parent %s\n", *relayID, r.Addr(), *parent)
		if err := r.Run(); err != nil {
			fatal(err)
		}
		fmt.Printf("relay %d: folded %d downstream frames into %d upstream frames\n",
			*relayID, r.DownFrames.Load(), r.UpFrames.Load())
	case "local":
		if *tree > 0 {
			res, co, relays, err := cluster.RunLocalTree(cfg, *tree, *flush)
			if err != nil {
				fatal(err)
			}
			defer co.Close()
			report(res)
			var down, up int64
			for _, r := range relays {
				down += r.DownFrames.Load()
				up += r.UpFrames.Load()
			}
			fmt.Printf("tree        %d relays folded %d site frames into %d root frames\n",
				len(relays), down, up)
			finishServer(attachServer(co, *serveOn, *serveCC, *serveDeg, *serveLearned), *probe, *probeTO)
			return
		}
		res, co, err := cluster.RunLocal(cfg)
		if err != nil {
			fatal(err)
		}
		defer co.Close()
		report(res)
		reportStruct(co)
		// The coordinator stays queryable after the run, so the local role
		// attaches the server post-run: scripts get the final estimates
		// over HTTP (the coord role serves live during the run instead).
		finishServer(attachServer(co, *serveOn, *serveCC, *serveDeg, *serveLearned), *probe, *probeTO)
	default:
		fatal(fmt.Errorf("unknown role %q", *role))
	}
}

// attachServer starts the HTTP query front end over the coordinator when
// -serve is given (internal/serve; the coord role serves live while frames
// stream in — the paper's query-at-any-time model). With -serve-learned the
// server answers from the online learned structure (hot-swapped on change)
// instead of the fixed base network.
func attachServer(co *cluster.Coordinator, addr string, maxConcurrent int, degradedAge time.Duration, learned bool) *serve.Server {
	if addr == "" {
		return nil
	}
	src := serve.NewCoordinatorSource(co)
	if learned {
		src = serve.NewLearnedCoordinatorSource(co)
	}
	srv, err := serve.New(serve.Config{
		Source:         src,
		MaxConcurrent:  maxConcurrent,
		MaxDegradedAge: degradedAge,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(addr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bncluster: query server on %s\n", srv.Addr())
	return srv
}

// finishServer answers -probe over the server's own HTTP endpoint, then
// drains and stops the server.
func finishServer(srv *serve.Server, assign string, probeTimeout time.Duration) {
	if srv == nil {
		if assign != "" {
			fatal(fmt.Errorf("-probe requires -serve"))
		}
		return
	}
	if assign != "" {
		p, err := probe.Marginal(srv.Addr(), assign, probeTimeout)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("P[%s] = %.6g\n", assign, p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
}

func report(res cluster.Result) {
	fmt.Printf("events      %d\n", res.Stats.Events)
	fmt.Printf("frames      %d\n", res.Stats.Frames)
	fmt.Printf("updates     %d\n", res.Stats.Updates)
	fmt.Printf("runtime     %v\n", res.Runtime)
	fmt.Printf("throughput  %.0f events/sec\n", res.Throughput)
	if res.LiveQueries > 0 {
		fmt.Printf("live-queries %d\n", res.LiveQueries)
	}
}

// reportStruct prints the structure-learning summary when the run had the
// online Chow-Liu overlay enabled (a no-op otherwise). The fold counters
// print whenever the overlay was on — even if no tree was learned yet, so a
// short run still shows how many struct frames were folded — and the
// learned-tree line only once a structure actually landed.
func reportStruct(co *cluster.Coordinator) {
	if !co.StructLearning() {
		return
	}
	ss := co.StructLearnStats()
	fmt.Printf("struct-frames   %d (%d pair-count entries)\n", ss.Frames, ss.Entries)
	fmt.Printf("struct-relearns %d (%d swaps, epoch %d)\n", ss.Relearns, ss.Swaps, ss.Epoch)
	netw, _, ok := co.LearnedStructure()
	if !ok {
		return
	}
	var sb strings.Builder
	for i := 0; i < netw.Len(); i++ {
		for _, p := range netw.Parents(i) {
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%s-%s", netw.Var(p).Name, netw.Var(i).Name)
		}
	}
	fmt.Printf("learned-tree    %s\n", sb.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bncluster:", err)
	os.Exit(1)
}
