// Sensornet reproduces the paper's motivating scenario (Section I): a
// large-scale sensor network — say traffic sensors across a highway system —
// where each sensor observes events with several correlated features and a
// coordinator continuously maintains a joint model without centralizing the
// raw stream.
//
// The dependency structure is a tree (each sensor's reading depends on one
// upstream sensor), the special case analyzed in Section V, Lemma 10. The
// example compares all four algorithms on communication and on query error
// against the ground truth.
package main

import (
	"fmt"
	"log"
	"math"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

func main() {
	const (
		sensors = 20
		states  = 3 // low / medium / high congestion
		sites   = 10
		events  = 200000
		eps     = 0.1
	)

	net, err := netgen.Tree(sensors, states, 2024)
	if err != nil {
		log.Fatal(err)
	}
	cpds, err := netgen.GenCPTs(net, netgen.CPTOptions{Alpha: 0.4, Floor: 0.05, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	model, err := bn.NewModel(net, cpds)
	if err != nil {
		log.Fatal(err)
	}

	queries, err := stream.GenQueries(model, stream.QueryOptions{Count: 500, MinProb: 0.01, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("highway sensor tree: %d sensors x %d states, %d sites, %d events\n\n",
		sensors, states, sites, events)
	fmt.Println("algorithm    messages      mean-err-to-truth")
	for _, st := range []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform} {
		tr, err := core.NewTracker(net, core.Config{
			Strategy: st, Eps: eps, Sites: sites, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		training := stream.NewTraining(model, stream.NewUniformAssigner(sites, 3), 4)
		for e := 0; e < events; e++ {
			site, x := training.Next()
			tr.Update(site, x)
		}
		sum, n := 0.0, 0
		for _, q := range queries {
			est := tr.QuerySubsetProb(q.Set, q.X)
			sum += math.Abs(est-q.Truth) / q.Truth
			n++
		}
		fmt.Printf("%-12s %-13d %.5f\n", st, tr.Messages().Total(), sum/float64(n))
	}
	fmt.Println("\nthe approximate trackers answer within a fraction of a percent of the")
	fmt.Println("exact model while sending a fraction of the messages (Lemma 10 tree case)")
}
