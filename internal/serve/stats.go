package serve

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"distbayes/internal/cluster"
)

// latencyBuckets is the number of power-of-two latency histogram buckets:
// bucket i counts observations whose duration in whole microseconds has bit
// length i, i.e. lies in [2^(i-1), 2^i) µs (bucket 0 absorbs sub-µs
// ones, the last bucket absorbs everything from ~1s up).
const latencyBuckets = 22

// histogram is a lock-free power-of-two latency histogram. Quantiles come
// back as bucket upper bounds, so they are exact to within a factor of two
// — plenty for a /statsz health read; the closed-loop benchmark computes
// exact percentiles client-side instead.
type histogram struct {
	count   atomic.Int64
	buckets [latencyBuckets]atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	idx := 0
	if us > 0 {
		idx = bits.Len64(uint64(us))
		if idx >= latencyBuckets {
			idx = latencyBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
}

// quantile returns the upper bound (µs) of the bucket holding the
// q-quantile observation, 0 when nothing was observed.
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < latencyBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return float64(uint64(1) << uint(i))
		}
	}
	return float64(uint64(1) << uint(latencyBuckets-1))
}

func (h *histogram) snapshot() []int64 {
	out := make([]int64, latencyBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// qpsWindow counts requests in per-second slots so Stats reports a
// recent-window rate rather than a lifetime average. Slot recycling is a
// CAS on the slot's second; a request racing the reset may land in a
// just-cleared slot — a stats-precision artifact, never a correctness one.
const (
	qpsSlots         = 16
	qpsWindowSeconds = 10
)

type qpsSlot struct {
	sec atomic.Int64
	n   atomic.Int64
}

type qpsWindow struct {
	slots [qpsSlots]qpsSlot
}

func (w *qpsWindow) record(nowSec int64) {
	s := &w.slots[nowSec%qpsSlots]
	if old := s.sec.Load(); old != nowSec {
		if s.sec.CompareAndSwap(old, nowSec) {
			s.n.Store(0)
		}
	}
	s.n.Add(1)
}

// rate averages over the last qpsWindowSeconds whole seconds (the current
// partial second is excluded so a fresh second does not read as a dip).
func (w *qpsWindow) rate(nowSec int64) float64 {
	var sum int64
	for i := range w.slots {
		sec := w.slots[i].sec.Load()
		if sec >= nowSec-qpsWindowSeconds && sec < nowSec {
			sum += w.slots[i].n.Load()
		}
	}
	return float64(sum) / qpsWindowSeconds
}

// Stats is a point-in-time view of the server's counters — the /statsz
// payload, also returned by Server.Stats for in-process inspection.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Health is the /healthz state: "ok", "degraded", "draining" or
	// "unavailable".
	Health     string           `json:"health"`
	Requests   int64            `json:"requests"`
	Errors     int64            `json:"errors"`
	Panics     int64            `json:"panics"`
	QPS        float64          `json:"qps"`
	ByEndpoint map[string]int64 `json:"by_endpoint"`
	Admission  AdmissionStats   `json:"admission"`
	Degraded   DegradedStats    `json:"degraded"`
	Snapshot   SnapshotStats    `json:"snapshot"`
	Latency    LatencyStats     `json:"latency"`
	// Struct reports the back end's structure-learning counters; nil when
	// the source does not run the overlay (fixed-structure runs, tracker
	// sources).
	Struct *cluster.StructStats `json:"struct,omitempty"`
}

// AdmissionStats describes the admission gate: its limits, its current
// occupancy, and how many requests it turned away.
type AdmissionStats struct {
	// MaxConcurrent and MaxQueue are the configured limits (0 =
	// unlimited, no gate).
	MaxConcurrent int `json:"max_concurrent"`
	MaxQueue      int `json:"max_queue"`
	// InFlight and Queued are point-in-time occupancy reads.
	InFlight int `json:"in_flight"`
	Queued   int `json:"queued"`
	// Shed counts requests rejected with 429 (queue full);
	// DeadlineExceeded counts requests whose deadline expired while
	// queued at the gate or waiting on a snapshot refresh (503).
	Shed             int64 `json:"shed"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
}

// DegradedStats describes degraded-mode serving: whether the source is
// currently failing and how the server has been answering through it.
type DegradedStats struct {
	// Active means the last refresh attempt failed; requests are served
	// from the last-good snapshot (within the staleness ceiling).
	Active       bool    `json:"active"`
	SinceSeconds float64 `json:"since_seconds,omitempty"`
	// Served counts answers from the last-good snapshot while degraded;
	// Unavailable counts 503s because no snapshot within the ceiling
	// existed; RefreshErrors counts failed source probes.
	Served        int64  `json:"served"`
	Unavailable   int64  `json:"unavailable"`
	RefreshErrors int64  `json:"refresh_errors"`
	LastError     string `json:"last_error,omitempty"`
}

// SnapshotStats describes the served snapshot and how often the server went
// back to its source for a new one.
type SnapshotStats struct {
	// Version and AgeMicros describe the currently cached snapshot.
	Version   uint64 `json:"version"`
	AgeMicros int64  `json:"age_us"`
	// Acquires counts source acquisitions (cache misses by age);
	// Refreshes counts the subset that observed a new snapshot version,
	// i.e. actual rebuilds become visible here.
	Acquires  int64 `json:"acquires"`
	Refreshes int64 `json:"refreshes"`
	// RefreshWaitCount counts the source acquisitions a request waited on
	// — the cache was past MaxSnapshotAge, or MaxSnapshotAge < 0, or the
	// server is degraded — and the percentiles (power-of-two bucket upper
	// bounds in µs) say how long each took: for a tracker source, a
	// snapshot rebuild whenever ingest moved.
	RefreshWaitCount     int64   `json:"refresh_wait_count"`
	RefreshWaitP50Micros float64 `json:"refresh_wait_p50_us"`
	RefreshWaitP99Micros float64 `json:"refresh_wait_p99_us"`
	// RefreshAheadCount counts the acquisitions made in the background,
	// started by a request that found the cache past MaxSnapshotAge/2 and
	// was answered from it, and the percentiles time them alike. Under
	// steady load nearly every refresh is one of these.
	RefreshAheadCount     int64   `json:"refresh_ahead_count"`
	RefreshAheadP50Micros float64 `json:"refresh_ahead_p50_us"`
	RefreshAheadP99Micros float64 `json:"refresh_ahead_p99_us"`
}

// LatencyStats summarizes the request latency histogram. Percentiles are
// power-of-two bucket upper bounds in microseconds.
type LatencyStats struct {
	Count     int64   `json:"count"`
	P50Micros float64 `json:"p50_us"`
	P90Micros float64 `json:"p90_us"`
	P99Micros float64 `json:"p99_us"`
	// BucketsPow2Micros[i] counts requests in [2^(i-1), 2^i) µs.
	BucketsPow2Micros []int64 `json:"buckets_pow2_us"`
}
