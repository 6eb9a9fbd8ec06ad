package serve

import (
	"fmt"
	"sync"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
)

// Snapshot is one immutable view of the tracked model. Every Factor read
// against one Snapshot value observes a single consistent materialization
// of the counter state; Version identifies that state (monotone
// non-decreasing across acquisitions from one source) and BuiltAt is when
// it was materialized. Model lazily normalizes the factors into a
// bn.Model, cached per snapshot; the returned model is immutable and
// remains valid after Release. Release returns the snapshot's reference to
// its source and must be called exactly once, after the last read.
//
// Production has exactly one implementation, *core.Snapshot, which every
// source below hands out (SwappableSource wraps it to offset the version);
// this stays an interface so tests can substitute fakes — a panicking
// query, a failing Model.
type Snapshot interface {
	// Factor is the tracked estimate of P[X_i = v | parent config pidx].
	Factor(i, v, pidx int) float64
	// QueryProb, QuerySubsetProb and Classify are the query kernels of
	// core.Snapshot: one interface call per request, with Factor inlined
	// into the loop over the network's variables.
	QueryProb(x []int) float64
	QuerySubsetProb(set, x []int) float64
	Classify(target int, x []int) int
	Version() uint64
	BuiltAt() time.Time
	Model() (*bn.Model, error)
	// Network is the structure the factors are parameters of. Fixed-
	// structure sources return the tracked network on every snapshot; a
	// learned-structure source (NewLearnedCoordinatorSource) may return a
	// different structure over the same variables after a hot swap, and all
	// of a snapshot's factors are consistent with its own network.
	Network() *bn.Network
	// StructureEpoch counts structure changes behind the snapshot: fixed at
	// 0 for fixed-structure sources, bumped at every hot structure swap by
	// learning sources. Exposed to clients in the response envelope's
	// snapshot block so they can detect swaps; it is non-decreasing per
	// source, like Version.
	StructureEpoch() uint64
	Release()
}

// ModelSource is the serving back end — an in-process tracker
// (NewTrackerSource), a live cluster coordinator (NewCoordinatorSource) or
// its learned-structure overlay (NewLearnedCoordinatorSource) — behind one
// interface so the server neither knows nor cares where the model is
// trained: each is a health check plus the producer's AcquireSnapshot.
type ModelSource interface {
	Network() *bn.Network
	// AcquireSnapshot returns the current model snapshot with a read
	// reference held, or an error when the back end can no longer produce
	// one (a closed or crashed coordinator). It may rebuild (bulk-reading
	// the dirty part of the counter state) or return the cached snapshot
	// when nothing changed. The server treats an error as a refresh
	// failure and keeps answering from its last-good snapshot in degraded
	// mode — see the package comment.
	AcquireSnapshot() (Snapshot, error)
}

// producerSource is the one ModelSource adapter: the tracked network, the
// producer's health check (nil = always healthy), its acquire, and — for
// coordinator-backed sources — the coordinator whose learning counters
// StructLearnStats reports. name labels the errors.
type producerSource struct {
	name    string
	netw    *bn.Network
	health  func() error
	acquire func() (*core.Snapshot, error)
	co      *cluster.Coordinator
}

func (s *producerSource) Network() *bn.Network { return s.netw }

func (s *producerSource) AcquireSnapshot() (Snapshot, error) {
	var snap *core.Snapshot
	var err error
	if s.health != nil {
		err = s.health()
	}
	if err == nil {
		snap, err = s.acquire()
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %s source: %w", s.name, err)
	}
	return snap, nil
}

// NewTrackerSource serves queries from an in-process tracker. Snapshots
// are the tracker's refcounted model snapshots: ingestion never blocks on
// a slow reader — an ingest burst simply retires the served snapshot,
// whose rows are recycled when its last reader releases it.
func NewTrackerSource(t *core.Tracker) ModelSource {
	return &producerSource{name: "tracker", netw: t.Network(),
		acquire: func() (*core.Snapshot, error) { return t.AcquireSnapshot(), nil }}
}

// NewCoordinatorSource serves queries from a live cluster coordinator —
// the distributed mirror of NewTrackerSource, valid at any time during a
// run (the paper's query-at-any-time model) and after it completes. A
// coordinator that was Closed or died with a protocol error fails
// AcquireSnapshot, which flips the server into degraded mode; a run that
// completed cleanly keeps serving its final estimates as fresh.
func NewCoordinatorSource(co *cluster.Coordinator) ModelSource {
	return &producerSource{name: "coordinator", netw: co.Network(), health: co.Err, co: co,
		acquire: func() (*core.Snapshot, error) { return co.AcquireSnapshot(), nil }}
}

// NewLearnedCoordinatorSource serves queries from a coordinator's *learned*
// structure — the online distributed Chow–Liu tree — instead of the fixed
// base DAG: NewCoordinatorSource (same network, same health check, same
// learning counters) handing out the learned-structure snapshot. Snapshots
// carry the learned tree itself (Network differs across structure swaps)
// with parameters seeded from the same windowed pair statistics, and
// StructureEpoch bumps at every swap; Version stays monotone across swaps, so
// the per-client consistency contract is unchanged. Before the first learned
// tree lands (or if the run was started without structure learning)
// AcquireSnapshot fails, which the server surfaces as unavailable/degraded —
// the documented cold-start behavior.
func NewLearnedCoordinatorSource(co *cluster.Coordinator) ModelSource {
	return &producerSource{name: "learned", netw: co.Network(), health: co.Err, co: co,
		acquire: co.AcquireLearnedSnapshot}
}

// SwappableSource is a ModelSource whose back end can be replaced while
// the server keeps running — the failover primitive for the degraded-mode
// story: when the coordinator behind a server dies, a supervisor restores
// a replacement from its last checkpoint and Swaps it in; the server's
// degraded mode bridges the gap and the swap restores fresh serving with
// no restart and no client-visible discontinuity.
//
// Versions stay monotone across swaps. A restored coordinator restarts
// its version clock below the dead one's, so raw versions would jump
// backwards at failover; SwappableSource offsets every
// snapshot version by the highest version it has handed out, bumping the
// offset at each Swap, so the consistency contract ("version monotone
// non-decreasing") holds across the entire failover sequence.
type SwappableSource struct {
	netw *bn.Network

	mu      sync.Mutex // guards cur/offset/maxSeen across acquire and swap
	cur     ModelSource
	offset  uint64 // added to every version from cur
	maxSeen uint64 // highest offset version handed out so far
}

// NewSwappableSource wraps initial so the back end can later be replaced
// with Swap.
func NewSwappableSource(initial ModelSource) (*SwappableSource, error) {
	if initial == nil {
		return nil, fmt.Errorf("serve: nil initial source")
	}
	return &SwappableSource{netw: initial.Network(), cur: initial}, nil
}

// Network returns the served network, fixed at construction: every swapped
// source must serve the same variables.
func (s *SwappableSource) Network() *bn.Network { return s.netw }

// AcquireSnapshot acquires from the current back end, offsetting the
// version per the failover contract. The lock is held across the inner
// acquire so a concurrent Swap cannot interleave between acquisition and
// the offset bookkeeping; the server's refresh path is single-flight, so
// the lock is uncontended in practice.
func (s *SwappableSource) AcquireSnapshot() (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, err := s.cur.AcquireSnapshot()
	if err != nil {
		return nil, err
	}
	off := s.offset
	if v := snap.Version() + off; v > s.maxSeen {
		s.maxSeen = v
	}
	return &offsetSnapshot{Snapshot: snap, off: off}, nil
}

// Swap replaces the back end. The replacement must serve the same
// variables (names and cardinalities); its structure may differ — snapshots
// carry their own Network, so a learned-structure replacement serves
// correctly. Snapshots acquired before the swap stay valid until released.
func (s *SwappableSource) Swap(next ModelSource) error {
	if next == nil {
		return fmt.Errorf("serve: Swap(nil)")
	}
	if err := s.netw.SameVariables(next.Network()); err != nil {
		return fmt.Errorf("serve: swapped source incompatible: %w", err)
	}
	s.mu.Lock()
	s.offset = s.maxSeen
	s.cur = next
	s.mu.Unlock()
	return nil
}

// StructStatsReporter is the optional ModelSource extension for back ends
// that run the structure-learning overlay: it returns the live fold counters
// and true, or ok = false when the overlay is off. The server surfaces the
// counters in /statsz (Stats.Struct). Coordinator-backed sources implement
// it; SwappableSource delegates to its current back end.
type StructStatsReporter interface {
	StructLearnStats() (cluster.StructStats, bool)
}

func (s *producerSource) StructLearnStats() (cluster.StructStats, bool) {
	if s.co == nil || !s.co.StructLearning() {
		return cluster.StructStats{}, false
	}
	return s.co.StructLearnStats(), true
}

// StructLearnStats delegates to the current back end, so /statsz keeps
// reporting learning counters across a failover swap.
func (s *SwappableSource) StructLearnStats() (cluster.StructStats, bool) {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if r, ok := cur.(StructStatsReporter); ok {
		return r.StructLearnStats()
	}
	return cluster.StructStats{}, false
}

// offsetSnapshot shifts the wrapped snapshot's version by the swap offset;
// everything else (factors, query kernels, model, release) passes through.
type offsetSnapshot struct {
	Snapshot
	off uint64
}

func (o *offsetSnapshot) Version() uint64 { return o.Snapshot.Version() + o.off }
