package bn

import (
	"fmt"
)

// This file provides sampling-based approximate inference for queries on
// networks whose treewidth puts exact variable elimination (infer.go) out of
// reach — e.g. conditional queries on the LINK- and MUNIN-scale networks of
// the evaluation.

// LikelihoodWeighting estimates P[query | evidence] by importance sampling:
// evidence variables are clamped and weighted by their CPD likelihood,
// everything else is forward-sampled. samples must be positive; query and
// evidence must be disjoint with values in range. The estimator is unbiased
// in the weighted-average sense; accuracy degrades when the evidence is
// improbable (use GibbsMarginal there).
func (m *Model) LikelihoodWeighting(query, evidence map[int]int, samples int, seed uint64) (float64, error) {
	if err := m.checkQuery(query, evidence); err != nil {
		return 0, err
	}
	if samples < 1 {
		return 0, fmt.Errorf("bn: samples = %d, want >= 1", samples)
	}
	sampler := m.NewSampler(seed)
	x := make([]int, m.net.Len())
	var wMatch, wTotal float64
	for s := 0; s < samples; s++ {
		w := 1.0
		for t := range sampler.vars {
			v := &sampler.vars[t]
			i, pidx := int(v.vari), sampler.parentIndex(v, x)
			if ev, ok := evidence[i]; ok {
				x[i] = ev
				w *= m.cpds[i].P(ev, pidx)
				continue
			}
			x[i] = sampler.draw(v, pidx)
		}
		wTotal += w
		match := true
		for v, val := range query {
			if x[v] != val {
				match = false
				break
			}
		}
		if match {
			wMatch += w
		}
	}
	if wTotal == 0 {
		return 0, fmt.Errorf("bn: all samples had zero weight (impossible evidence?)")
	}
	return wMatch / wTotal, nil
}

// GibbsMarginal estimates P[query | evidence] with Gibbs sampling: all
// non-evidence variables are resampled in turn from their Markov-blanket
// conditionals. burnIn sweeps are discarded, then iters sweeps are averaged.
// The chain is ergodic whenever the model is strictly positive (the netgen
// CPT floor guarantees this).
func (m *Model) GibbsMarginal(query, evidence map[int]int, iters, burnIn int, seed uint64) (float64, error) {
	if err := m.checkQuery(query, evidence); err != nil {
		return 0, err
	}
	if iters < 1 || burnIn < 0 {
		return 0, fmt.Errorf("bn: iters = %d burnIn = %d", iters, burnIn)
	}
	sampler := m.NewSampler(seed)
	rng := sampler.rng
	n := m.net.Len()

	// Initial state: forward sample with evidence clamped.
	x := make([]int, n)
	for t := range sampler.vars {
		v := &sampler.vars[t]
		if ev, ok := evidence[int(v.vari)]; ok {
			x[v.vari] = ev
			continue
		}
		x[v.vari] = sampler.draw(v, sampler.parentIndex(v, x))
	}
	var free []int
	for i := 0; i < n; i++ {
		if _, ok := evidence[i]; !ok {
			free = append(free, i)
		}
	}

	sweep := func() {
		for _, i := range free {
			// The posterior is a fresh slice: turn it into running sums in
			// place and draw from those.
			post := m.PosteriorVar(i, x)
			for j := 1; j < len(post); j++ {
				post[j] += post[j-1]
			}
			x[i] = drawCum(post, rng.Float64())
		}
	}
	for s := 0; s < burnIn; s++ {
		sweep()
	}
	hits := 0
	for s := 0; s < iters; s++ {
		sweep()
		match := true
		for v, val := range query {
			if x[v] != val {
				match = false
				break
			}
		}
		if match {
			hits++
		}
	}
	return float64(hits) / float64(iters), nil
}

func (m *Model) checkQuery(query, evidence map[int]int) error {
	if len(query) == 0 {
		return fmt.Errorf("bn: empty query")
	}
	n := m.net.Len()
	check := func(v, val int) error {
		if v < 0 || v >= n {
			return fmt.Errorf("bn: variable %d out of range", v)
		}
		if val < 0 || val >= m.net.Card(v) {
			return fmt.Errorf("bn: value %d out of range for variable %d", val, v)
		}
		return nil
	}
	for v, val := range query {
		if err := check(v, val); err != nil {
			return err
		}
		if _, dup := evidence[v]; dup {
			return fmt.Errorf("bn: variable %d in both query and evidence", v)
		}
	}
	for v, val := range evidence {
		if err := check(v, val); err != nil {
			return err
		}
	}
	return nil
}
