package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster/chaos"
	"distbayes/internal/core"
)

// The chaos suite: kill-and-restart sites and the coordinator at seeded
// points of a fig7-scale run and check the result against an uninterrupted
// run. The assertions are stronger than the (ε, δ) envelope the issue asks
// for — per-site determinism (seeded streams, seeded report RNGs), monotone
// counts and the coordinator's idempotent max-merge make the final estimates
// *bit-identical* under every fault the harness injects, so the tests pin
// exact fingerprint equality (which subsumes the envelope, and keeps exact
// counters exact). All fault schedules are frame- or event-indexed, never
// timer-based, so every failure reproduces from its seed.

// chaosConfig is the fig7-scale run the chaos tests perturb; -short shrinks
// it to a CI-friendly deterministic configuration.
func chaosConfig(t *testing.T, strategy core.Strategy) Config {
	events := 20000
	if testing.Short() {
		events = 6000
	}
	return Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: strategy, Eps: 0.1, Delta: 0.25,
		Sites: 4, Events: events, StreamSeed: 1789,
	}
}

// baselineFingerprint runs cfg uninterrupted and returns its estimate
// fingerprint and stats.
func baselineFingerprint(t *testing.T, cfg Config) (uint64, Stats) {
	t.Helper()
	res, co, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return estFingerprint(co), res.Stats
}

// runThroughProxy drives a full run with every site connected through a
// chaos proxy, with generous site retry budgets (the faults are the point).
// configure, when non-nil, tweaks each site before it runs.
func runThroughProxy(t *testing.T, cfg Config, pcfg chaos.Config, configure func(*Site)) (Result, *Coordinator, *chaos.Proxy) {
	t.Helper()
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	p, err := chaos.New(pcfg, co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	errs := make([]error, cfg.Sites)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSite(uint32(i), p.Addr())
			s.RetryBase = 2 * time.Millisecond
			s.RetryCap = 50 * time.Millisecond
			if configure != nil {
				configure(s)
			}
			_, errs[i] = s.Run()
		}(i)
	}
	res, err := co.Serve()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
	}
	return res, co, p
}

// TestChaosSeveredConnectionsBitIdentical: every site connection is severed
// repeatedly at seeded frame counts — sometimes mid-frame, so the
// coordinator sees truncated payloads — and sites resume with the v3
// handshake and replay. The final estimates must equal the uninterrupted
// run's bit for bit, for an approximate strategy and for ExactMLE (exact
// counters stay exact).
func TestChaosSeveredConnectionsBitIdentical(t *testing.T) {
	for _, strategy := range []core.Strategy{core.Uniform, core.ExactMLE} {
		t.Run(strategy.String(), func(t *testing.T) {
			cfg := chaosConfig(t, strategy)
			want, base := baselineFingerprint(t, cfg)
			res, co, p := runThroughProxy(t, cfg, chaos.Config{
				Seed:            0xBAD5EED,
				SeverMinFrames:  60,
				SeverMaxFrames:  500,
				MidFrameCutProb: 0.4,
			}, nil)
			if p.Severed() == 0 {
				t.Error("proxy severed no connections; the chaos run degenerated to a clean one")
			}
			t.Logf("severed %d connections over %d admissions", p.Severed(), p.Connections())
			if got := estFingerprint(co); got != want {
				t.Errorf("estimate fingerprint %#016x != uninterrupted %#016x", got, want)
			}
			if res.Stats.Events != base.Events {
				t.Errorf("events = %d, want %d", res.Stats.Events, base.Events)
			}
		})
	}
}

// TestChaosDuplicatesAndDelayBitIdentical: update frames are duplicated and
// delivered in held-back bursts on top of severing. Duplicates and delayed
// replays are exactly what the max-merge fold absorbs; the estimates must
// still be bit-identical (the frame *count* legitimately differs, so only
// events and estimates are pinned).
func TestChaosDuplicatesAndDelayBitIdentical(t *testing.T) {
	cfg := chaosConfig(t, core.Uniform)
	cfg.SiteBatchEvents = 64 // exercise the v2 framing under faults too
	want, base := baselineFingerprint(t, cfg)
	// Batched sites send ~events/window frames in total, so the sever window
	// must sit well inside that (a batched connection is only ~25 frames
	// long at the -short scale).
	res, co, p := runThroughProxy(t, cfg, chaos.Config{
		Seed:            0xD00D,
		SeverMinFrames:  5,
		SeverMaxFrames:  18,
		MidFrameCutProb: 0.25,
		DupProb:         0.2,
		HoldEvery:       7,
		HoldFrames:      3,
	}, nil)
	if p.Severed() == 0 || p.Duplicated() == 0 {
		t.Errorf("faults did not fire (severed %d, duplicated %d)", p.Severed(), p.Duplicated())
	}
	t.Logf("severed %d, duplicated %d over %d admissions", p.Severed(), p.Duplicated(), p.Connections())
	if got := estFingerprint(co); got != want {
		t.Errorf("estimate fingerprint %#016x != uninterrupted %#016x", got, want)
	}
	if res.Stats.Events != base.Events {
		t.Errorf("events = %d, want %d", res.Stats.Events, base.Events)
	}
}

// runLocalChurn is RunLocal under site churn: each site goroutine is killed
// (the Site.CrashAfterEvents hook — the site stops dead at a stream position
// without sending Done) and restarted as a fresh process-equivalent Site, at
// crashesPerSite seeded points of its stream. A restarted site rejoins with
// a plain hello and replays its stream from event zero. crashes[i] is the
// number of times site i's Run returned ErrSiteCrashed.
func runLocalChurn(cfg Config, seed uint64, crashesPerSite int) (res Result, co *Coordinator, crashes []int, err error) {
	co, err = NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		return Result{}, nil, nil, err
	}
	defer co.Close()
	crashes = make([]int, cfg.Sites)
	res, err = runLocal(co, func(i int) (Stats, error) {
		rng := bn.NewRNG(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		ev := cfg.eventsFor(uint32(i))
		// Crash points ascend, so each incarnation outlives the previous
		// crash, and lie in (last, ev): the hook fires before an event, so a
		// point at ev would not fire. Each draw leaves room for the rest.
		last := 0
		for n := range crashesPerSite {
			room := ev - 1 - last - (crashesPerSite - 1 - n)
			if room < 1 {
				return Stats{}, fmt.Errorf("%d events leave no room for %d crashes", ev, crashesPerSite)
			}
			last += 1 + rng.Intn(room)
			s := NewSite(uint32(i), co.Addr())
			s.CrashAfterEvents = uint64(last)
			if _, err := s.Run(); !errors.Is(err, ErrSiteCrashed) {
				return Stats{}, fmt.Errorf("crash hook at %d returned %v, want ErrSiteCrashed", last, err)
			}
			crashes[i]++
		}
		return NewSite(uint32(i), co.Addr()).Run()
	})
	if err != nil {
		return Result{}, nil, nil, err
	}
	return res, co, crashes, nil
}

// TestChaosSiteKillRestartBitIdentical kills every site process at seeded
// stream positions (no Done, no goodbye — the CrashAfterEvents hook) and
// restarts it from scratch; the rejoin replays the deterministic stream, the
// fold dedups, and the estimates must match the uninterrupted run bit for
// bit on every strategy. Churn costs retransmitted frames, never accuracy.
func TestChaosSiteKillRestartBitIdentical(t *testing.T) {
	const crashesPerSite = 2
	for _, strategy := range allStrategies {
		t.Run(strategy.String(), func(t *testing.T) {
			cfg := chaosConfig(t, strategy)
			want, base := baselineFingerprint(t, cfg)
			res, co, crashes, err := runLocalChurn(cfg, 0xFEE1DEAD, crashesPerSite)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range crashes {
				if n != crashesPerSite {
					t.Errorf("site %d crashed %d times, want %d", i, n, crashesPerSite)
				}
			}
			if got := estFingerprint(co); got != want {
				t.Errorf("estimate fingerprint %#016x != uninterrupted %#016x", got, want)
			}
			if res.Stats.Events != base.Events {
				t.Errorf("events = %d, want %d", res.Stats.Events, base.Events)
			}
			if res.Stats.Frames < base.Frames {
				t.Errorf("frames = %d, fewer than the uninterrupted %d (replays only add frames)", res.Stats.Frames, base.Frames)
			}
		})
	}
}

// TestChaosCoordinatorKillRestartConverges kills the coordinator mid-run (an
// abrupt Close: connections die, no stats, exactly what kill -9 leaves
// behind), restarts a fresh one from the last periodic checkpoint, retargets
// the proxy — the sites' stable rendezvous — and lets the sites re-resume
// against the restored state. The run must complete with every event
// accounted for and estimates bit-identical to an uninterrupted run: the
// checkpoint is a lower bound on every site's decided reports and the resume
// replay + continued stream raise each matrix cell to exactly its
// uninterrupted final value.
func TestChaosCoordinatorKillRestartConverges(t *testing.T) {
	cfg := chaosConfig(t, core.Uniform)
	want, base := baselineFingerprint(t, cfg)

	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "coord.ckpt")
	cfg.CheckpointEveryFrames = 300

	co1, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Kill the coordinator at a seeded frame count (deterministic — frame
	// counters do not depend on timing; the assertions below hold for any
	// kill point, which is the invariant under test). The point sits past
	// several checkpoint cadences and well before the run can finish.
	rng := bn.NewRNG(0x5EEDC0DE)
	co1.CrashAfterFrames = int64(cfg.Events/4 + rng.Intn(cfg.Events/4))
	p, err := chaos.New(chaos.Config{}, co1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	stats := make([]Stats, cfg.Sites)
	errs := make([]error, cfg.Sites)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSite(uint32(i), p.Addr())
			s.RetryBase = 2 * time.Millisecond
			s.RetryCap = 50 * time.Millisecond
			s.MaxResumes = 200 // the coordinator is gone for a stretch; keep knocking
			stats[i], errs[i] = s.Run()
		}(i)
	}

	serve1 := make(chan error, 1)
	go func() {
		_, err := co1.Serve()
		serve1 <- err
	}()

	if err := <-serve1; err != ErrCoordinatorClosed {
		t.Fatalf("killed Serve returned %v, want ErrCoordinatorClosed", err)
	}
	// A cadence checkpoint must exist by now: the kill point is past many
	// cadences, and Serve returns only after the checkpoint writer has exited.
	if _, err := os.Stat(cfg.CheckpointPath); err != nil {
		t.Fatalf("no cadence checkpoint after the kill: %v", err)
	}

	co2, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co2.Close() })
	if err := co2.RestoreCheckpointFile(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	p.SetTarget(co2.Addr())

	serve2 := make(chan Result, 1)
	go func() {
		res, err := co2.Serve()
		if err != nil {
			t.Error(err)
		}
		serve2 <- res
	}()
	wg.Wait()
	res := <-serve2

	for i, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", i, err)
		}
		if stats[i] != res.Stats {
			t.Errorf("site %d saw stats %+v, coordinator %+v", i, stats[i], res.Stats)
		}
	}
	if res.Stats.Events != base.Events {
		t.Errorf("events = %d, want %d (every event accounted for across the restart)", res.Stats.Events, base.Events)
	}
	if got := estFingerprint(co2); got != want {
		t.Errorf("estimate fingerprint %#016x != uninterrupted %#016x", got, want)
	}
	if err := co2.LastCheckpointError(); err != nil {
		t.Errorf("periodic checkpointing failed: %v", err)
	}
}

// TestChaosCoordinatorRestartAfterCompletion: a coordinator restored from a
// checkpoint written after the run completed must serve immediately and
// still answer a straggler site's resume with the closing stats.
func TestChaosCoordinatorRestartAfterCompletion(t *testing.T) {
	cfg := chaosConfig(t, core.Uniform)
	cfg.Events = 2000
	dir := t.TempDir()
	cfg.CheckpointPath = filepath.Join(dir, "coord.ckpt")
	cfg.CheckpointEveryFrames = 100

	res1, co1, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := estFingerprint(co1)
	// RunLocal's Serve returned only after the checkpoint writer wrote the
	// complete-run checkpoint and exited, so the file on disk is final.
	co2, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if err := co2.RestoreCheckpointFile(cfg.CheckpointPath); err != nil {
		t.Fatal(err)
	}
	// Only a complete-run checkpoint restores every site's Done marker; a
	// mid-run one would make Serve wait for sites that never come.
	if got := co2.LiveStats().Events; got != res1.Stats.Events {
		t.Fatalf("checkpoint restored %d events, want the complete run's %d", got, res1.Stats.Events)
	}
	if res, err := co2.Serve(); err != nil || res.Stats.Events != res1.Stats.Events {
		t.Fatalf("restored Serve = %+v, %v; want %d events", res.Stats, err, res1.Stats.Events)
	}
	if got := estFingerprint(co2); got != want {
		t.Errorf("restored estimate fingerprint %#016x != original %#016x", got, want)
	}
}
