// Package stream generates the distributed training workload and the test
// workloads of the paper's evaluation (Section VI-A): training events are
// forward-sampled from a ground-truth model and routed to one of k sites;
// test events are assignments to ancestrally closed variable subsets with
// ground-truth probability at least a threshold (0.01 in the paper); and
// classification tests hide one variable of a sampled assignment.
package stream

import "distbayes/internal/bn"

// Assigner routes each arriving event to a site in [0, k).
type Assigner interface {
	// Next returns the site that receives the next event.
	Next() int
}

// UniformAssigner sends each event to a uniformly random site — the
// distribution used in the paper's experiments.
type UniformAssigner struct {
	k   int
	rng *bn.RNG
}

// NewUniformAssigner creates a uniform router over k sites.
func NewUniformAssigner(k int, seed uint64) *UniformAssigner {
	return &UniformAssigner{k: k, rng: bn.NewRNG(seed)}
}

// Next implements Assigner.
func (a *UniformAssigner) Next() int { return a.rng.Intn(a.k) }

// RoundRobinAssigner cycles through sites deterministically.
type RoundRobinAssigner struct {
	k, next int
}

// NewRoundRobinAssigner creates a round-robin router over k sites.
func NewRoundRobinAssigner(k int) *RoundRobinAssigner { return &RoundRobinAssigner{k: k} }

// Next implements Assigner.
func (a *RoundRobinAssigner) Next() int {
	s := a.next
	a.next = (a.next + 1) % a.k
	return s
}

// Training couples a ground-truth sampler with a site assigner; each call to
// Next produces one (site, event) pair. The event buffer is reused: callers
// must not retain it across calls.
type Training struct {
	sampler *bn.Sampler
	assign  Assigner
	buf     []int
	count   int64
}

// NewTraining builds a training stream for model with the given assigner.
func NewTraining(model *bn.Model, assign Assigner, seed uint64) *Training {
	return &Training{
		sampler: model.NewSampler(seed),
		assign:  assign,
		buf:     make([]int, model.Network().Len()),
	}
}

// Next returns the next event and its receiving site. The returned slice is
// reused by subsequent calls.
func (t *Training) Next() (site int, x []int) {
	t.sampler.Sample(t.buf)
	t.count++
	return t.assign.Next(), t.buf
}

// ParentIndices returns, per variable, the parent-configuration index
// (bn.Network.ParentIndex over the generating model's network) of the event
// the latest Next returned. Like the event, it is reused by the next call.
func (t *Training) ParentIndices() []int { return t.sampler.ParentIndices() }

// Count returns the number of events produced so far.
func (t *Training) Count() int64 { return t.count }
