package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
)

// Striped coordinator federation: the flat counter-id space is partitioned
// into K contiguous stripes (Layout.StripeRange), each owned by its own
// coordinator process. Sites run ONE stream and route each decided report to
// the stripe's owner, so ingest load divides across the federation; queries
// scatter-gather the per-stripe estimate snapshots and merge them — exact,
// because the estimate of a counter depends only on that counter's per-site
// reports, which live wholly inside one stripe. Estimates are therefore
// bit-identical to a flat run of the same Config (asserted by the federation
// tests): striping moves counters between machines, never across sites.

// FederatedSite is a site of a striped run: it connects to every stripe
// coordinator, verifies they describe the same run, and runs the same
// siteRun.stream loop a flat Site runs — ONE stream, same counters, same RNG
// draw order, so every report decision is identical to the flat run's — with
// a reportWriter over all K connections routing each decided report to the
// coordinator owning its counter id.
//
// FederatedSite does not resume: a lost stripe connection fails the site.
// Fault tolerance in the federation PR lives on the aggregation-tree tier
// (relays reconnect and replay; sites behind them resume as before) — a
// striped site would additionally need per-stripe resume cursors, which is
// future work.
type FederatedSite struct {
	id uint32
	// addrs[i] is stripe i's coordinator address.
	addrs []string

	// DialAttempts, RetryBase, RetryCap shape the per-stripe dial retry
	// exactly as on Site; zero selects the same defaults.
	DialAttempts        int
	RetryBase, RetryCap time.Duration
}

// NewFederatedSite prepares a federated site with the given id; addrs[i]
// must be the coordinator owning stripe i of len(addrs).
func NewFederatedSite(id uint32, addrs []string) *FederatedSite {
	return &FederatedSite{id: id, addrs: addrs}
}

// Run connects to every stripe coordinator, processes the configured stream
// once, and returns each stripe's closing Stats (index = stripe). All
// stripes report the same Events (every site's Done carries its full event
// count to every stripe); Frames and Updates are per-stripe.
func (s *FederatedSite) Run() ([]Stats, error) {
	k := len(s.addrs)
	if k < 1 {
		return nil, fmt.Errorf("cluster: federated site %d has no stripe addresses", s.id)
	}
	jrng := bn.NewRNG(0xfede5a1e ^ (uint64(s.id) * 0x9e3779b97f4a7c15))
	retry := retryPolicy{attempts: s.DialAttempts, base: s.RetryBase, cap: s.RetryCap}
	conns := make([]*conn, 0, k)
	raws := make([]net.Conn, 0, k)
	defer func() {
		for _, raw := range raws {
			raw.Close()
		}
	}()

	// Handshake with every stripe; the StartConfigs must agree on everything
	// but the stripe index (one run, K owners).
	var base StartConfig
	for i, addr := range s.addrs {
		raw, err := retry.dialSite(s.id, addr, jrng)
		if err != nil {
			return nil, err
		}
		raws = append(raws, raw)
		c := newConn(raw)
		cfg, _, err := hello(c, frameHello, s.id)
		if err != nil {
			return nil, fmt.Errorf("cluster: federated site %d: stripe %d: %w", s.id, i, err)
		}
		if int(cfg.StripeCount) != k || int(cfg.StripeIndex) != i {
			return nil, fmt.Errorf("cluster: federated site %d: stripe %d announced stripe %d/%d, want %d/%d",
				s.id, i, cfg.StripeIndex, cfg.StripeCount, i, k)
		}
		cfg.StripeIndex = 0
		if i == 0 {
			base = cfg
		} else if cfg != base {
			return nil, fmt.Errorf("cluster: federated site %d: stripe %d describes a different run than stripe 0", s.id, i)
		}
		conns = append(conns, c)
	}

	// One stream, regenerated exactly as a flat Site would (the stripe
	// fields do not enter the regeneration), so every report decision —
	// counter value and RNG draw order — matches the flat run bit for bit.
	st, err := newSiteRun(s.id, base)
	if err != nil {
		return nil, err
	}
	w := newReportWriter(st.layout, conns...)
	if err := st.stream(w, 0); err != nil {
		return nil, err
	}
	// Done carries the site's full event count to EVERY stripe — each owner
	// supervises the whole membership, so each one's closing Events is the
	// run total.
	if err := w.writeAll(frameDone, encodeDone(s.id, int64(st.cfg.Events))); err != nil {
		return nil, err
	}
	out := make([]Stats, k)
	for i, c := range conns {
		if out[i], err = awaitStats(c, s.id); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Federation is the scatter-gather query plane over a striped run: one
// handle per stripe coordinator, merged into the same query surface a single
// coordinator offers (Estimate, QueryProb, EstimatedModel, AcquireSnapshot).
// The merge is exact — stripe s's snapshot is authoritative for exactly the
// ids in its owned range, and ranges partition the id space — so a federated
// query equals the flat coordinator's answer on the same reports.
type Federation struct {
	parts  []*Coordinator
	net    *bn.Network
	layout *Layout

	rebuildMu sync.Mutex
	snap      atomic.Pointer[estSnapshot]
}

// NewFederation builds the query plane over the stripe coordinators;
// parts[i] must be configured as stripe i of len(parts) over the same run.
func NewFederation(parts []*Coordinator) (*Federation, error) {
	if len(parts) < 1 {
		return nil, fmt.Errorf("cluster: federation needs at least one coordinator")
	}
	for i, co := range parts {
		if co.cfg.StripeCount != len(parts) || co.cfg.StripeIndex != i {
			return nil, fmt.Errorf("cluster: federation part %d is stripe %d/%d, want %d/%d",
				i, co.cfg.StripeIndex, co.cfg.StripeCount, i, len(parts))
		}
		if co.cfg.NetName != parts[0].cfg.NetName || co.layout.NumCounters() != parts[0].layout.NumCounters() {
			return nil, fmt.Errorf("cluster: federation part %d tracks a different run than part 0", i)
		}
	}
	return &Federation{parts: parts, net: parts[0].net, layout: parts[0].layout}, nil
}

// Network returns the shared network structure.
func (f *Federation) Network() *bn.Network { return f.net }

// Err returns the first stripe coordinator failure, or nil while every
// stripe can still answer — the health probe the serving layer's federated
// source uses to flip into degraded mode when any stripe dies.
func (f *Federation) Err() error {
	for i, co := range f.parts {
		if err := co.Err(); err != nil {
			return fmt.Errorf("stripe %d: %w", i, err)
		}
	}
	return nil
}

// Estimate returns the federation's current estimate of a counter's global
// count, read live from the owning stripe.
func (f *Federation) Estimate(id uint32) float64 {
	total := f.layout.NumCounters()
	if id >= total {
		return 0
	}
	k := uint32(len(f.parts))
	// Invert StripeRange: candidate stripe from the uniform split, corrected
	// for the floor rounding (off by at most one).
	s := uint32(uint64(id) * uint64(k) / uint64(total))
	for {
		lo, hi := f.layout.StripeRange(s, k)
		if id < lo {
			s--
		} else if id >= hi {
			s++
		} else {
			return f.parts[s].Estimate(id)
		}
	}
}

// estimates returns a current merged snapshot (versions[i] is part i's
// snapshot version at merge time), re-merging only when some stripe's
// snapshot version moved. The per-part acquisitions reuse each coordinator's
// own version-validated snapshot, so a federation query against quiescent
// stripes costs K version comparisons.
func (f *Federation) estimates() *estSnapshot {
	parts := make([]*estSnapshot, len(f.parts))
	fresh := true
	old := f.snap.Load()
	for i, co := range f.parts {
		parts[i] = co.estimates()
		if old == nil || old.versions[i] != parts[i].version {
			fresh = false
		}
	}
	if fresh {
		return old
	}
	f.rebuildMu.Lock()
	defer f.rebuildMu.Unlock()
	ns := &estSnapshot{
		versions: make([]uint64, len(parts)),
		est:      make([]float64, f.layout.NumCounters()),
	}
	for i, ps := range parts {
		lo, hi := f.layout.StripeRange(uint32(i), uint32(len(parts)))
		copy(ns.est[lo:hi], ps.est[lo:hi])
		ns.versions[i] = ps.version
		ns.version += ps.version
	}
	ns.builtAt = time.Now()
	f.snap.Store(ns)
	return ns
}

// AcquireSnapshot returns the current merged estimates behind the same read
// handle a single coordinator offers, so the serving layer fronts a federation
// unchanged. Its version is the sum of the per-stripe snapshot versions.
func (f *Federation) AcquireSnapshot() *core.Snapshot {
	return f.estimates().snapshot(f.net, f.layout)
}

// QueryProb answers a joint-probability query from the merged estimates —
// the same Algorithm-3 product a single coordinator computes.
func (f *Federation) QueryProb(x []int) float64 { return f.AcquireSnapshot().QueryProb(x) }

// EstimatedModel materializes the merged estimates into a normalized
// bn.Model, cached per merged snapshot.
func (f *Federation) EstimatedModel() (*bn.Model, error) { return f.AcquireSnapshot().Model() }

// RunLocalFederation executes a striped run on loopback TCP: K stripe
// coordinators (cfg with StripeIndex = 0..K-1, StripeCount = K), cfg.Sites
// federated site goroutines each routing its one stream across the stripes,
// and a Federation query plane over the coordinators (usable during and
// after the run). The aggregate Result reports Events from stripe 0 (every
// stripe supervises the full membership, so each one's Events is already the
// run total — summing would multiply by K) and sums Frames and Updates
// across stripes (each frame and update lands on exactly one stripe).
func RunLocalFederation(cfg Config, stripes int) (Result, *Federation, error) {
	if stripes < 1 {
		return Result{}, nil, fmt.Errorf("cluster: federation stripes = %d, want >= 1", stripes)
	}
	parts := make([]*Coordinator, stripes)
	addrs := make([]string, stripes)
	for i := range parts {
		pcfg := cfg
		pcfg.StripeIndex, pcfg.StripeCount = i, stripes
		co, err := NewCoordinator(pcfg, "127.0.0.1:0")
		if err != nil {
			for _, p := range parts[:i] {
				p.Close()
			}
			return Result{}, nil, err
		}
		parts[i] = co
		addrs[i] = co.Addr()
	}
	defer func() {
		for _, p := range parts {
			p.Close()
		}
	}()
	fed, err := NewFederation(parts)
	if err != nil {
		return Result{}, nil, err
	}

	wait := startSites(cfg.Sites, func(i int) ([]Stats, error) {
		return NewFederatedSite(uint32(i), addrs).Run()
	})

	results := make([]Result, stripes)
	errs := make([]error, stripes)
	var swg sync.WaitGroup
	for i, co := range parts {
		swg.Add(1)
		go func(i int, co *Coordinator) {
			defer swg.Done()
			results[i], errs[i] = co.Serve()
		}(i, co)
	}
	swg.Wait()
	outs, siteErr := wait()
	for i, err := range errs {
		if err != nil {
			return Result{}, nil, fmt.Errorf("cluster: stripe %d: %w", i, err)
		}
	}
	if siteErr != nil {
		return Result{}, nil, siteErr
	}
	for i, stats := range outs {
		for s := range parts {
			if stats[s] != results[s].Stats {
				return Result{}, nil, fmt.Errorf("cluster: site %d saw stripe %d stats %+v, coordinator %+v",
					i, s, stats[s], results[s].Stats)
			}
		}
	}

	agg := Result{Stats: Stats{Events: results[0].Stats.Events}}
	for _, r := range results {
		agg.Stats.Frames += r.Stats.Frames
		agg.Stats.Updates += r.Stats.Updates
		if r.Runtime > agg.Runtime {
			agg.Runtime = r.Runtime
		}
	}
	if agg.Runtime > 0 {
		agg.Throughput = float64(agg.Stats.Events) / agg.Runtime.Seconds()
	}
	return agg, fed, nil
}
