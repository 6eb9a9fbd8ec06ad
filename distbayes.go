// Package distbayes is a from-scratch Go implementation of
// "Learning Graphical Models from a Distributed Stream"
// (Yu Zhang, Srikanta Tirthapura, Graham Cormode; ICDE 2018).
//
// It continuously maintains the parameters (conditional probability
// distributions) of a Bayesian network over a stream of training events that
// is horizontally partitioned across k distributed sites, in the continuous
// distributed monitoring model: a coordinator holds an (ε, δ)-approximation
// of the exact maximum-likelihood estimate at all times while exchanging
// exponentially fewer messages than exact maintenance.
//
// The package is a thin facade over the implementation packages:
//
//	internal/bn          Bayesian-network substrate (DAG, CPTs, sampling)
//	internal/counter     distributed counters (exact and HYZ randomized banks)
//	internal/core        the tracking algorithms (EXACTMLE, BASELINE, UNIFORM,
//	                     NONUNIFORM, Naïve-Bayes specialization) with their
//	                     Lagrange error-budget allocator (eqs. 5-9), and the
//	                     one read path: core.Snapshot and the query kernel
//	internal/netgen      Table I network generators and variants
//	internal/stream      workload generation (training streams, test queries)
//	internal/cluster     live TCP implementation (coordinator + sites)
//	internal/serve       HTTP query front end over core.Snapshots
//	internal/chowliu     Chow–Liu structure learning (offline and the MI
//	                     primitives of the online distributed path)
//	internal/decay       the sliding window (WindowVec) the structure overlay
//	                     ages its pairwise statistics with
//	internal/experiments one driver per paper table/figure
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	net, _ := distbayes.NewNetwork([]distbayes.Variable{
//		{Name: "Weather", Card: 3},
//		{Name: "Traffic", Card: 2, Parents: []int{0}},
//	})
//	tr, _ := distbayes.NewTracker(net, distbayes.Config{
//		Strategy: distbayes.NonUniform, Eps: 0.1, Sites: 30,
//	})
//	tr.Update(site, event) // once per observation, at the receiving site
//	p := tr.QueryProb([]int{1, 0})
//
// # Concurrency
//
// A Tracker is safe for concurrent use: every ingestion entry point (Update,
// UpdateBatch, UpdateEvents, Ingest) and every query entry point may be
// called from multiple goroutines. Config.Shards selects the number of lock
// stripes guarding the counter banks. With Shards ≤ 1 (the default) there is
// a single stripe: concurrent callers serialize, and for a fixed seed and
// event order the tracker's counts, message tallies and query answers are
// bit-identical to the historical sequential implementation. With Shards > 1
// the banks are striped by variable index with an independent RNG per
// stripe, so k site goroutines ingest in parallel (see
// stream.NewSiteTrainings and stream.DriveParallel for per-site sub-streams
// and a ready-made parallel driver); exact counts remain exact under any
// interleaving, while randomized-counter message schedules become
// interleaving-dependent (still within the (ε, δ) guarantee). Batched
// ingestion (UpdateBatch / Ingest) additionally moves the parent-index
// computation outside the locks, so producers share almost no serialized
// work beyond the counter increments themselves.
//
// These are the two ingestion engines, sequential and striped; see the
// core.Tracker documentation for their full contract. SaveState/LoadState
// require ingestion to be quiesced for a meaningful stream position;
// nothing else does.
//
// # Storage and query performance
//
// Counter state is stored in flat per-variable banks (one contiguous
// struct-of-arrays per variable and counter kind), so ingestion increments
// contiguous memory with no per-cell interface dispatch. Every query path
// (QueryProb, QuerySubsetProb, QueryCPD, Classify, EstimatedModel,
// InferMarginal, ClassifyPartial) is served from a cached model snapshot
// guarded by per-stripe version counters: a rebuild locks each stripe once
// and bulk-reads every variable's rows, and repeated queries between ingest
// flushes reuse the snapshot without taking any locks. A retired snapshot
// returns its one backing array of factor rows to a pool, so a steady-state
// ingest+query mix rebuilds into recycled storage instead of allocating the
// rows per rebuild.
//
// There is one snapshot type and one query kernel. core.Snapshot is an
// immutable set of per-variable factor rows with its network, version, build
// time and structure epoch; the tracker, the cluster coordinator and the
// coordinator's learned-structure overlay each only build one, and Algorithm
// 3, the Markov-blanket argmax, partial-evidence classification and the
// normalized model are each written once against it
// (core.QueryProb, core.Classify, ... — also what the HTTP handlers call). Any number of goroutines may read one
// snapshot; each acquisition is released exactly once.
//
// # Query serving
//
// internal/serve puts a network front end on the snapshot read path: an
// HTTP/JSON query service answering QueryProb, QuerySubsetProb, Classify,
// ClassifyPartial, InferMarginal and EstimatedModel, where every response
// is computed against exactly one immutable model snapshot and tagged with
// that snapshot's version and age (the snapshot-consistency contract; see
// the serve package documentation). A server fronts an in-process Tracker
// (serve.NewTrackerSource), a live cluster coordinator
// (serve.NewCoordinatorSource, cmd/bncluster -serve) or its learned tree
// through the same ModelSource interface, all handing out core.Snapshots. Underneath, snapshot rebuilds read whole counter
// rows through kind-specialized counter.Bank.EstimateRange bulk loops
// instead of a per-cell Estimate switch, so rebuilding munin's 101 866 CPT
// cells stays cheap enough to refresh on a millisecond staleness bound
// under live ingest (BenchmarkServeQueries: a multi-client closed-loop
// load with a hot ingest pump, gated in BENCH_BASELINE.txt). See
// cmd/bnserve for the standalone binary and examples/serving for an
// end-to-end cluster + server + client-mix program.
//
// The serving plane degrades instead of failing: a concurrency-limited
// admission gate sheds over-capacity requests with fast 429s so admitted
// latency stays bounded (BenchmarkServeOverload), per-request deadlines
// cancel waits with clean 503s, and when a snapshot refresh fails — the
// coordinator crashed, the source is gone — the server keeps answering
// from the last-good refcounted snapshot, tagging responses degraded with
// their version and age up to a staleness ceiling. serve.SwappableSource
// swaps a replacement coordinator (restored from its checkpoint) under a
// running server with a monotone snapshot-version clock across the
// failover. The full contract under chaos — every response a correct
// version-monotone answer or a clean 429/503, never a hang, torn read or
// 500 — is pinned by TestServeChaosCoordinatorKillRestart in
// internal/serve.
//
// # Structure learning
//
// The paper treats structure selection as orthogonal ("learned offline on a
// suitable sample"); internal/chowliu provides that offline route (Learn,
// re-exported here as LearnStructure) and the repository closes the loop
// online: with cluster.Config.StructBatchEvents set, sites ship windowed
// pairwise co-occurrence statistics on the batched frame cadence, the coordinator
// periodically re-runs Chow–Liu over the aggregated mutual-information
// matrix (chowliu.MIFromCounts + chowliu.TreeFromMI over per-site
// decay.WindowVec windows, so stale evidence ages out), and hot-swaps the
// served structure when the learned tree changes — bumping a structure
// epoch carried on every snapshot, with versions monotone across the swap.
// serve.NewLearnedCoordinatorSource serves queries from the learned tree
// (cmd/bncluster -struct-batch, -serve-learned); with
// cluster.Config.DriftNetName (cmd/bncluster -drift-net) the generating
// network changes mid-stream and the overlay re-learns the new tree.
//
// # Distributed deployment
//
// internal/cluster runs the same architecture over real TCP: k site
// processes stream locally-generated events through the site half of the
// counter protocol to a coordinator — the root of an optional tree of
// relays, which all run one receiving tier — whose QueryProb/EstimatedModel
// answer at any time during a live run from version-validated snapshots of
// its reported-count matrix — the paper's query-at-any-time model. Sites
// can coalesce report decisions into delta batches
// (cluster.Config.SiteBatchEvents, wire-protocol version 2), shipping a
// small fraction of the frames with bit-identical final estimates. The
// cluster is fault tolerant: sites reconnect with a resume handshake and
// replay their decided counts (idempotent under the coordinator's
// max-merge), the coordinator checkpoints its run state on a frame cadence
// and restores after a crash (cmd/bncluster -checkpoint/-resume), and a
// deterministic chaos harness (internal/cluster/chaos) pins estimates
// bit-identical to the uninterrupted run under severed connections,
// duplicated frames and process kills. See the cluster package
// documentation and cmd/bncluster.
//
// Past one coordinator's capacity the cluster scales out, exactly, along one
// axis: an aggregation tree (cluster.Relay, cmd/bncluster -role relay)
// places relays between sites and the root. Each relay folds its children's
// frames into per-site monotone vectors with the same idempotent max-merge
// the coordinator uses and ships one coalesced grouped frame upstream per
// cadence, dividing root frame load by roughly the branching factor at
// bit-identical estimates; relays hold no durable state, so site
// resume-replay heals severed uplinks and relay restarts. The federation
// experiment (cmd/bnmle -exp federation) quantifies it against the flat
// topology.
package distbayes

import (
	"context"

	"distbayes/internal/bif"
	"distbayes/internal/bn"
	"distbayes/internal/chowliu"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// Core model types.
type (
	// Variable declares one categorical node of a Bayesian network.
	Variable = bn.Variable
	// Network is a validated DAG over categorical variables.
	Network = bn.Network
	// CPT is one conditional probability table.
	CPT = bn.CPT
	// Model is a network with ground-truth parameters.
	Model = bn.Model
)

// Tracking types (the paper's contribution).
type (
	// Tracker continuously maintains the approximate MLE.
	Tracker = core.Tracker
	// Config parameterizes a Tracker.
	Config = core.Config
	// Strategy selects the tracking algorithm.
	Strategy = core.Strategy
	// Event is one (site, observation) pair, the unit of batched and
	// channel-based ingestion (Tracker.UpdateEvents, Tracker.Ingest).
	Event = core.Event
)

// Strategies.
const (
	// ExactMLE maintains exact counters (Lemma 5 strawman).
	ExactMLE = core.ExactMLE
	// Baseline divides the budget as ε/(3n) (Section IV-C).
	Baseline = core.Baseline
	// Uniform divides the budget as ε/(16√n) (Section IV-D).
	Uniform = core.Uniform
	// NonUniform uses the Lagrange allocation (Section IV-E).
	NonUniform = core.NonUniform
	// NaiveBayes is the Section V specialization for Naïve-Bayes models.
	NaiveBayes = core.NaiveBayes
)

// NewNetwork validates variables into a Network.
func NewNetwork(vars []Variable) (*Network, error) { return bn.NewNetwork(vars) }

// NewModel pairs a network with CPTs.
func NewModel(net *Network, cpds []*CPT) (*Model, error) { return bn.NewModel(net, cpds) }

// NewCPT builds one conditional probability table.
func NewCPT(card, parentCard int, table []float64) (*CPT, error) {
	return bn.NewCPT(card, parentCard, table)
}

// NewTracker initializes the distributed counters for net (Algorithm 1).
func NewTracker(net *Network, cfg Config) (*Tracker, error) { return core.NewTracker(net, cfg) }

// LoadNetwork returns one of the built-in Table I networks by name:
// "alarm", "hepar2", "link", "munin" or "new-alarm".
func LoadNetwork(name string) (*Network, error) { return netgen.ByName(name) }

// LoadModel returns a built-in network with default ground-truth CPTs.
func LoadModel(name string) (*Model, error) { return netgen.ModelByName(name) }

// NetworkNames lists the built-in network names.
func NetworkNames() []string { return netgen.Names() }

// Workload types.
type (
	// Training couples a ground-truth sampler with a site assigner.
	Training = stream.Training
	// Query is one probability test event.
	Query = stream.Query
)

// NewTraining builds a training stream over k uniformly loaded sites.
func NewTraining(model *Model, sites int, seed uint64) *Training {
	return stream.NewTraining(model, stream.NewUniformAssigner(sites, seed^0xdead), seed)
}

// NewSiteTrainings builds one independent training sub-stream per site for
// parallel ingestion — pair with Produce, or one Tracker.Ingest/UpdateBatch
// pump per site.
func NewSiteTrainings(model *Model, sites int, seed uint64) []*Training {
	return stream.NewSiteTrainings(model, sites, seed)
}

// Produce sends the next n events of t into out (each with its own backing
// array, ready for Tracker.Ingest), stopping early if ctx is canceled;
// returns how many were sent. The channel is left open — the caller owns it.
func Produce(ctx context.Context, t *Training, n int, out chan<- Event) int64 {
	return stream.Produce(ctx, t, n, out)
}

// GenQueries samples probability test events with truth at least minProb.
func GenQueries(model *Model, count int, minProb float64, seed uint64) ([]Query, error) {
	return stream.GenQueries(model, stream.QueryOptions{Count: count, MinProb: minProb, Seed: seed})
}

// LearnStructure estimates a Chow–Liu tree from complete samples — the
// paper's offline structure-selection route (internal/chowliu). The result
// is always a single connected tree rooted at variable 0.
func LearnStructure(samples [][]int, cards []int) (*Network, error) {
	return chowliu.Learn(samples, cards)
}

// MarshalBIF renders a model in the Bayesian Interchange Format subset
// understood by UnmarshalBIF — compatible with the bnlearn repository files
// the paper's networks come from.
func MarshalBIF(name string, m *Model) ([]byte, error) { return bif.Marshal(name, m) }

// UnmarshalBIF parses a BIF document into a model, e.g. a genuine
// repository network downloaded separately.
func UnmarshalBIF(data []byte) (*Model, error) { return bif.Unmarshal(data) }
