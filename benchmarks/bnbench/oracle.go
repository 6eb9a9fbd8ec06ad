package main

import (
	"fmt"
	"math"
	"sync"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/stream"
)

// oracle is the benchmark's own exact tally of the stream it generated: for
// every variable the count of each (value, parent configuration) pair and of
// each parent configuration. It shares no code with the tracker, the
// counters or the cluster, so the maximum-likelihood estimate it gives is an
// independent reference for what they report.
type oracle struct {
	net    *bn.Network
	pair   [][]int64 // pair[i][pidx*Card(i)+value]
	par    [][]int64 // par[i][pidx]
	events int64
}

func newOracle(net *bn.Network) *oracle {
	o := &oracle{net: net, pair: make([][]int64, net.Len()), par: make([][]int64, net.Len())}
	for i := range o.pair {
		o.pair[i] = make([]int64, net.Card(i)*net.ParentCard(i))
		o.par[i] = make([]int64, net.ParentCard(i))
	}
	return o
}

// add tallies w occurrences of the event x.
func (o *oracle) add(x []int, w int64) {
	for i := range o.pair {
		pidx := o.net.ParentIndex(i, x)
		o.pair[i][pidx*o.net.Card(i)+x[i]] += w
		o.par[i][pidx] += w
	}
	o.events += w
}

func (o *oracle) merge(other *oracle) {
	for i := range o.pair {
		for c, n := range other.pair[i] {
			o.pair[i][c] += n
		}
		for c, n := range other.par[i] {
			o.par[i][c] += n
		}
	}
	o.events += other.events
}

// mle is the exact maximum-likelihood probability of x restricted to the
// ancestrally closed set: the product of count ratios, 0 when a parent
// configuration was never seen.
func (o *oracle) mle(set, x []int) float64 {
	p := 1.0
	for _, i := range set {
		pidx := o.net.ParentIndex(i, x)
		den := o.par[i][pidx]
		if den == 0 {
			return 0
		}
		p *= float64(o.pair[i][pidx*o.net.Card(i)+x[i]]) / float64(den)
	}
	return p
}

// tallyPool tallies a pool of events fed cyclically, from its start, until
// total events were sent.
func tallyPool(net *bn.Network, pool []core.Event, total int) *oracle {
	o := newOracle(net)
	whole, rest := int64(total/len(pool)), total%len(pool)
	for i, ev := range pool {
		w := whole
		if i < rest {
			w++
		}
		if w > 0 {
			o.add(ev.X, w)
		}
	}
	return o
}

// siteEvents is the cluster's even split of a stream across its sites: the
// first events%sites sites take one event more.
func siteEvents(events, sites, id int) int {
	n := events / sites
	if id < events%sites {
		n++
	}
	return n
}

// tallyCluster regenerates the sub-stream every site of a cluster run draws
// (the same constructor and the same split the sites use) and tallies it,
// one goroutine per site.
func tallyCluster(model *bn.Model, sites, events int, streamSeed uint64) *oracle {
	parts := make([]*oracle, sites)
	var wg sync.WaitGroup
	for id := 0; id < sites; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			o := newOracle(model.Network())
			tr := stream.NewSiteTraining(model, id, streamSeed)
			for n := siteEvents(events, sites, id); n > 0; n-- {
				_, x := tr.Next()
				o.add(x, 1)
			}
			parts[id] = o
		}(id)
	}
	wg.Wait()
	for _, p := range parts[1:] {
		parts[0].merge(p)
	}
	return parts[0]
}

// errorVsMLE compares an estimator with the oracle on the test queries. It
// returns the mean relative error |P̃−P̂|/P̂ and how many queries fall
// outside the [e^-ε, e^ε]·P̂ envelope. A query whose P̂ is 0 has no relative
// error; it is outside the envelope unless the estimate is 0 too.
func errorVsMLE(o *oracle, queries []stream.Query, eps float64, estimate func(set, x []int) float64) (mean float64, outside int) {
	lo, hi := math.Exp(-eps), math.Exp(eps)
	n := 0
	for _, q := range queries {
		want, got := o.mle(q.Set, q.X), estimate(q.Set, q.X)
		if want == 0 {
			if got != 0 {
				outside++
			}
			continue
		}
		mean += math.Abs(got-want) / want
		n++
		if r := got / want; !(r >= lo && r <= hi) {
			outside++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, outside
}

// checkTrackerCounts compares every exact count the tracker holds with the
// oracle's tally of the events sent.
func checkTrackerCounts(tr *core.Tracker, o *oracle) error {
	if tr.Events() != o.events {
		return fmt.Errorf("tracker saw %d events, %d were sent", tr.Events(), o.events)
	}
	net := o.net
	for i := 0; i < net.Len(); i++ {
		j := net.Card(i)
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < j; v++ {
				pair, par := tr.ExactCount(i, v, pidx)
				if pair != o.pair[i][pidx*j+v] || par != o.par[i][pidx] {
					return fmt.Errorf("variable %d value %d parents %d: tracker counts %d/%d, stream had %d/%d",
						i, v, pidx, pair, par, o.pair[i][pidx*j+v], o.par[i][pidx])
				}
			}
		}
	}
	return nil
}
