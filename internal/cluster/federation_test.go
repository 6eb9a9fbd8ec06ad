package cluster

import (
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

// TestFederationBitIdenticalToFlat is the striping half of the tentpole
// acceptance: a K-stripe federation produces bit-identical estimates to a
// flat run of the same Config. Striping partitions counters across owners
// but never splits a counter's per-site reports, and the federated site
// regenerates the identical stream and report decisions, so every merged
// estimate equals the flat coordinator's.
func TestFederationBitIdenticalToFlat(t *testing.T) {
	for _, batch := range []int{0, 250} {
		cfg := Config{
			NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
			Eps: 0.1, Delta: 0.25, Sites: 5, Events: 15000, StreamSeed: 41,
			SiteBatchEvents: batch,
		}
		flatRes, flatCo, err := RunLocal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fedRes, fed, err := RunLocalFederation(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		total := flatCo.layout.NumCounters()
		for id := uint32(0); id < total; id++ {
			if f, g := flatCo.Estimate(id), fed.Estimate(id); f != g {
				t.Fatalf("batch %d counter %d: flat %v, federated %v", batch, id, f, g)
			}
		}
		if fedRes.Stats.Events != flatRes.Stats.Events {
			t.Errorf("batch %d events: federated %d, flat %d", batch, fedRes.Stats.Events, flatRes.Stats.Events)
		}
		// Every decided report lands on exactly one stripe, so the summed
		// update count matches the flat run exactly.
		if fedRes.Stats.Updates != flatRes.Stats.Updates {
			t.Errorf("batch %d updates: federated %d, flat %d", batch, fedRes.Stats.Updates, flatRes.Stats.Updates)
		}

		// The scatter-gather query plane answers like the flat coordinator.
		rng := bn.NewRNG(99)
		var x []int
		for i := 0; i < 50; i++ {
			x = stream.RandomAssignment(flatCo.Network(), rng, x)
			if f, g := flatCo.QueryProb(x), fed.QueryProb(x); f != g {
				t.Fatalf("batch %d QueryProb(%v): flat %v, federated %v", batch, x, f, g)
			}
		}
		fm, err := flatCo.EstimatedModel()
		if err != nil {
			t.Fatal(err)
		}
		gm, err := fed.EstimatedModel()
		if err != nil {
			t.Fatal(err)
		}
		x = stream.RandomAssignment(flatCo.Network(), rng, x)
		if f, g := fm.JointProb(x), gm.JointProb(x); f != g {
			t.Errorf("batch %d model joint prob: flat %v, federated %v", batch, f, g)
		}
	}
}

// TestStripedConfigValidation pins the striping config contract: bad stripe
// specs and the striping/structure-learning exclusion are rejected.
func TestStripedConfigValidation(t *testing.T) {
	base := Config{
		NetName: "alarm", CPTSeed: 1, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 2, Events: 100, StreamSeed: 1,
	}
	bad := []func(*Config){
		func(c *Config) { c.StripeIndex = 1 },                          // index without count
		func(c *Config) { c.StripeIndex, c.StripeCount = 2, 2 },        // index out of range
		func(c *Config) { c.StripeIndex, c.StripeCount = -1, 2 },       // negative
		func(c *Config) { c.StripeCount, c.StructBatchEvents = 2, 64 }, // striping + learning
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := NewCoordinator(cfg, "127.0.0.1:0"); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	co, err := NewCoordinator(base, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co.Close()
}

// TestStripedCheckpointRestore runs one stripe coordinator, checkpoints it
// mid-state, and restores into a fresh coordinator — the PR 6 crash-safety
// story extended to striped owners (rows are compact but checkpoints store
// absolute counter ids, so they are self-describing).
func TestStripedCheckpointRestore(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 4, Events: 12000, StreamSeed: 47,
		SiteBatchEvents: 200,
		StripeIndex:     1, StripeCount: 3,
	}
	_, fed, err := RunLocalFederation(Config{
		NetName: cfg.NetName, CPTSeed: cfg.CPTSeed, Strategy: cfg.Strategy,
		Eps: cfg.Eps, Delta: cfg.Delta, Sites: cfg.Sites, Events: cfg.Events,
		StreamSeed: cfg.StreamSeed, SiteBatchEvents: cfg.SiteBatchEvents,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := fed.parts[1]

	path := t.TempDir() + "/stripe.ckpt"
	if err := src.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if err := restored.RestoreCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	lo, hi := src.ownLo, src.ownHi
	for id := lo; id < hi; id++ {
		if a, b := src.Estimate(id), restored.Estimate(id); a != b {
			t.Fatalf("counter %d: original %v, restored %v", id, a, b)
		}
	}

	// A checkpoint from one stripe must not restore into another (the
	// fingerprint binds the owned range).
	other := cfg
	other.StripeIndex = 0
	wrong, err := NewCoordinator(other, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if err := wrong.RestoreCheckpointFile(path); err == nil {
		t.Error("stripe-1 checkpoint restored into stripe-0 coordinator")
	}
}

// TestLayoutSectionsPartition is the satellite property test for
// Layout.Sections: over several networks and strategies, the sections must
// cover [0, NumCounters()) exactly — contiguous, ascending, no gaps or
// overlaps — and each section's eps must equal Layout.Eps for every id in
// it. StripeRange must partition the same space for any stripe count.
func TestLayoutSectionsPartition(t *testing.T) {
	for _, name := range []string{"alarm", "hepar2", "tree:16:3:7"} {
		netw, err := netgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform} {
			layout, err := NewLayout(netw, strat, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			next := uint32(0)
			for si, sec := range layout.Sections() {
				if sec.Lo != next {
					t.Fatalf("%s/%v section %d starts at %d, want %d (gap or overlap)", name, strat, si, sec.Lo, next)
				}
				if sec.Hi < sec.Lo {
					t.Fatalf("%s/%v section %d inverted: [%d,%d)", name, strat, si, sec.Lo, sec.Hi)
				}
				for id := sec.Lo; id < sec.Hi; id++ {
					if layout.Eps(id) != sec.Eps {
						t.Fatalf("%s/%v id %d: section eps %v, layout eps %v", name, strat, id, sec.Eps, layout.Eps(id))
					}
				}
				next = sec.Hi
			}
			if next != layout.NumCounters() {
				t.Fatalf("%s/%v sections end at %d, want %d", name, strat, next, layout.NumCounters())
			}

			for _, count := range []uint32{1, 2, 3, 5, 7, layout.NumCounters(), layout.NumCounters() + 3} {
				prev := uint32(0)
				for idx := uint32(0); idx < count; idx++ {
					lo, hi := layout.StripeRange(idx, count)
					if lo != prev {
						t.Fatalf("%s stripe %d/%d starts at %d, want %d", name, idx, count, lo, prev)
					}
					if hi < lo {
						t.Fatalf("%s stripe %d/%d inverted: [%d,%d)", name, idx, count, lo, hi)
					}
					prev = hi
				}
				if prev != layout.NumCounters() {
					t.Fatalf("%s stripes of %d end at %d, want %d", name, count, prev, layout.NumCounters())
				}
			}
		}
	}
}
