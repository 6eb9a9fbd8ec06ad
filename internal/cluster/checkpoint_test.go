package cluster

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster/chaos"
	"distbayes/internal/core"
)

// TestCheckpointGoldenBitCompat is the checkpoint/restore analogue of
// TestSequentialClusterBitCompat: the serial coordinator (single stripe,
// batching off) is killed mid-run, restored from its latest periodic
// checkpoint, and the sites re-resume against the restored state. The final
// estimates must reproduce TestSequentialClusterBitCompat's goldens (PR 3
// HEAD's, re-recorded with them when sites began drawing gaps) bit for bit —
// the checkpointed matrix is a lower bound on every site's decided reports,
// and the resume replay plus the continued stream raise each cell to exactly
// the value the uninterrupted serial run would have reported. Frame and
// update totals legitimately differ (replays), so only the estimate hashes
// are pinned.
func TestCheckpointGoldenBitCompat(t *testing.T) {
	golden := []struct {
		strategy core.Strategy
		esthash  uint64
	}{
		{core.ExactMLE, 0xee6784936905cf9f},
		{core.Baseline, 0x205a2f60c2a9c669},
		{core.Uniform, 0x209eb5212c1539cf},
		{core.NonUniform, 0xf7ee2d63c668ae1e},
	}
	for _, g := range golden {
		g := g
		t.Run(g.strategy.String(), func(t *testing.T) {
			cfg := Config{
				NetName: "alarm", CPTSeed: 0xC0DE, Strategy: g.strategy, Eps: 0.1, Delta: 0.25,
				Sites: 3, Events: 4000, StreamSeed: 99,
			}
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "coord.ckpt")
			cfg.CheckpointEveryFrames = 250

			co1, err := NewCoordinator(cfg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			// The serial run moves 4003 frames; a seeded kill point in
			// [1000, 2000) sits past several checkpoint cadences and well
			// before completion.
			rng := bn.NewRNG(0x0C0FFEE ^ uint64(g.strategy))
			co1.CrashAfterFrames = int64(1000 + rng.Intn(1000))
			p, err := chaos.New(chaos.Config{}, co1.Addr())
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
					s.MaxResumes = 200
					_, errs[i] = s.Run()
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
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, err := os.Stat(cfg.CheckpointPath); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no checkpoint file appeared")
				}
				time.Sleep(2 * time.Millisecond)
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

			res, err := co2.Serve()
			if err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("site %d: %v", i, err)
				}
			}
			if res.Stats.Events != int64(cfg.Events) {
				t.Errorf("events = %d, want %d", res.Stats.Events, cfg.Events)
			}
			if h := estFingerprint(co2); h != g.esthash {
				t.Errorf("estimate fingerprint = %#016x, want %#016x (golden)", h, g.esthash)
			}
		})
	}
}

// TestCheckpointRoundTripCompleteRun checkpoints a completed run and
// restores it into a fresh coordinator: Serve must return immediately (all
// sites are recorded done) with identical stats, and the estimates must be
// bit-identical — the restored matrix alone carries them, no site ever
// connects.
func TestCheckpointRoundTripCompleteRun(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform, Eps: 0.1, Delta: 0.25,
		Sites: 3, Events: 4000, StreamSeed: 99,
	}
	res1, co1, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := co1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	co2, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co2.Close() })
	if err := co2.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if co2.epoch != co1.epoch+1 {
		t.Errorf("restored epoch = %d, want %d", co2.epoch, co1.epoch+1)
	}
	res2, err := co2.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Events != res1.Stats.Events ||
		res2.Stats.Frames != res1.Stats.Frames ||
		res2.Stats.Updates != res1.Stats.Updates {
		t.Errorf("restored stats %+v != original %+v", res2.Stats, res1.Stats)
	}
	if got, want := estFingerprint(co2), estFingerprint(co1); got != want {
		t.Errorf("restored estimate fingerprint %#016x != original %#016x", got, want)
	}
}

// TestRestoreInvalidatesSnapshot: a snapshot acquired before a restore must
// not be served after it. A restored completed run receives no frame that
// would invalidate it later, so a stale one would be served forever.
func TestRestoreInvalidatesSnapshot(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform, Eps: 0.1, Delta: 0.25,
		Sites: 3, Events: 4000, StreamSeed: 7,
	}
	_, co1, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := co1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	co2, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co2.Close() })
	co2.AcquireSnapshot().Release() // cache the empty state's snapshot
	if err := co2.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, want := co2.AcquireSnapshot(), co1.AcquireSnapshot()
	netw := co1.Network()
	for i := 0; i < netw.Len(); i++ {
		for pidx := 0; pidx < netw.ParentCard(i); pidx++ {
			for v := 0; v < netw.Card(i); v++ {
				if g, w := got.Factor(i, v, pidx), want.Factor(i, v, pidx); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("factor(%d,%d,%d) = %v after restore, checkpointed run %v", i, v, pidx, g, w)
				}
			}
		}
	}
}

// TestCheckpointFingerprintMismatch: a checkpoint must refuse to load into a
// coordinator whose run parameters differ — restoring alarm counts into an
// insurance run would silently corrupt every estimate.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform, Eps: 0.1, Delta: 0.25,
		Sites: 3, Events: 400, StreamSeed: 99,
	}
	_, co1, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := co1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Eps = 0.2
	co2, err := NewCoordinator(other, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co2.Close() })
	err = co2.RestoreCheckpoint(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("restore with mismatched config: err = %v, want fingerprint mismatch", err)
	}
}

// TestCheckpointRejectsRowOutsideLayout: a DBCLUS01 file whose row names
// counter NumCounters() — one past the layout — fails RestoreCheckpoint, and
// the same file naming the last counter restores it.
func TestCheckpointRejectsRowOutsideLayout(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.Uniform, Eps: 0.1, Delta: 0.25,
		Sites: 2, Events: 400, StreamSeed: 99,
	}
	// restore builds a checkpoint whose every row holds the one counter id
	// NumCounters()-1+past and restores it into a fresh coordinator.
	restore := func(past uint32) (co *Coordinator, id uint32, err error) {
		co, err = NewCoordinator(cfg, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { co.Close() })
		id = co.layout.NumCounters() - 1 + past
		// Writes to a bytes.Buffer cannot fail.
		var buf bytes.Buffer
		cw, _ := core.NewCkptWriter(&buf, checkpointMagic)
		for _, v := range []uint64{co.checkpointFingerprint(), 0, 0, 0, uint64(cfg.Sites)} {
			cw.PutU64(v)
		}
		for site := 0; site < cfg.Sites; site++ {
			cw.PutU64(0) // not done
			cw.PutU64(0) // events
			cw.PutRecord(encodeUpdates2(nil, []Update{{Counter: id, LocalCount: 7}}))
		}
		cw.Flush()
		return co, id, co.RestoreCheckpoint(&buf)
	}
	co, last, err := restore(0)
	if err != nil {
		t.Fatalf("row naming the last counter %d: %v", last, err)
	}
	if got := co.reported[1][last]; got != 7 {
		t.Errorf("restored row holds %d at counter %d, want 7", got, last)
	}
	if _, id, err := restore(1); err == nil {
		t.Fatalf("row naming counter %d, past the layout, restored", id)
	}
}
