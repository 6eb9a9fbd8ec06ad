// Command bnserve serves model queries over HTTP while continuously
// training a tracker from a ground-truth stream — a one-process deployment
// of the serving subsystem (internal/serve) for demos, load tests and
// BIF-loaded models:
//
//	bnserve -net alarm -addr 127.0.0.1:8080 &
//	curl -d '{"assign":{"alarm_3":1}}' http://127.0.0.1:8080/v1/marginal
//	curl http://127.0.0.1:8080/statsz
//
//	bnserve -bif model.bif -addr 127.0.0.1:8080
//
// With -events N the stream stops after N events (the tracker keeps
// serving); with -events 0 ingestion runs until interrupted. -probe
// "name=value,..." issues one marginal query against the server's own HTTP
// endpoint after ingestion settles, prints the answer and exits — the
// smoke-test and scripting hook.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"distbayes/cmd/internal/probe"
	"distbayes/internal/bif"
	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/serve"
	"distbayes/internal/stream"
)

func main() {
	var (
		netName  = flag.String("net", "", "built-in network name (see bngen -list)")
		bifPath  = flag.String("bif", "", "path to a BIF model file")
		addr     = flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
		strategy = flag.String("strategy", "nonuniform", "exact | baseline | uniform | nonuniform")
		eps      = flag.Float64("eps", 0.1, "approximation budget")
		delta    = flag.Float64("delta", 0.25, "failure probability")
		sites    = flag.Int("sites", 4, "number of simulated sites k")
		events   = flag.Int("events", 100000, "training events to ingest (0 = stream until interrupted)")
		seed     = flag.Uint64("seed", 1, "stream seed")
		maxAge   = flag.Duration("max-age", serve.DefaultMaxSnapshotAge, "snapshot staleness bound (negative = per-request acquire)")
		degAge   = flag.Duration("max-degraded-age", serve.DefaultMaxDegradedAge, "degraded-mode staleness ceiling (negative = disable degraded serving)")
		maxConc  = flag.Int("max-concurrent", serve.DefaultMaxConcurrent, "admission limit: concurrent requests in the query handlers (negative = unlimited)")
		maxQueue = flag.Int("max-queue", 0, "admission wait-queue depth (0 = 2x max-concurrent, negative = none)")
		reqTO    = flag.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline (negative = none)")
		writeTO  = flag.Duration("write-timeout", serve.DefaultWriteTimeout, "HTTP write timeout (negative = none)")
		probeFor = flag.String("probe", "", "after ingest, print P[name=value,...] via /v1/marginal and exit")
		probeTO  = flag.Duration("probe-timeout", 10*time.Second, "deadline for the -probe query; a wedged server fails the probe instead of hanging it")
	)
	flag.Parse()

	model, err := loadModel(*netName, *bifPath)
	if err != nil {
		fatal(err)
	}
	st, err := core.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: st, Eps: *eps, Delta: *delta, Sites: *sites, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Source:         serve.NewTrackerSource(tr),
		MaxSnapshotAge: *maxAge,
		MaxDegradedAge: *degAge,
		MaxConcurrent:  *maxConc,
		MaxQueue:       *maxQueue,
		RequestTimeout: *reqTO,
		WriteTimeout:   *writeTO,
	})
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(*addr); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bnserve: serving %d-variable model on %s (strategy %s, k=%d)\n",
		model.Network().Len(), srv.Addr(), *strategy, *sites)

	training := stream.NewTraining(model, stream.NewUniformAssigner(*sites, *seed^0xdead), *seed)
	ingest := func(n int) {
		var buf []core.Event
		for n > 0 {
			c := n
			if c > 512 {
				c = 512
			}
			buf = training.NextEvents(buf[:0], c)
			tr.UpdateEvents(buf)
			n -= c
		}
	}

	if *events > 0 {
		ingest(*events)
		fmt.Fprintf(os.Stderr, "bnserve: ingested %d events, serving\n", *events)
	}

	if *probeFor != "" {
		p, err := probe.Marginal(srv.Addr(), *probeFor, *probeTO)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("P[%s] = %.6g\n", *probeFor, p)
		shutdown(srv)
		return
	}

	if *events == 0 {
		go func() {
			for {
				ingest(4096)
			}
		}()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	shutdown(srv)
}

func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
}

func loadModel(netName, bifPath string) (*bn.Model, error) {
	switch {
	case netName != "" && bifPath != "":
		return nil, fmt.Errorf("use either -net or -bif, not both")
	case netName != "":
		return netgen.ModelByName(netName)
	case bifPath != "":
		data, err := os.ReadFile(bifPath)
		if err != nil {
			return nil, err
		}
		return bif.Unmarshal(data)
	default:
		return nil, fmt.Errorf("one of -net or -bif is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnserve:", err)
	os.Exit(1)
}
