package core

import (
	"bytes"
	"context"
	"testing"
)

func bufferedCfg(st Strategy, shards, cadence int) Config {
	cfg := cfgFor(st, shards)
	cfg.DeltaBuffered = true
	cfg.DeltaFlushEvents = cadence
	return cfg
}

// TestDeltaBufferedQueryBarrier: increments parked below the flush cadence
// must still be visible to every read path, because each read starts with a
// FlushDeltas barrier.
func TestDeltaBufferedQueryBarrier(t *testing.T) {
	m := testModel(t)
	evs := genEventStream(m, 4, 300, 17)

	ref, err := NewTracker(m.Network(), cfgFor(NonUniform, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTracker(m.Network(), bufferedCfg(NonUniform, 1, 1<<20)) // cadence never fires on its own
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		ref.Update(ev.Site, ev.X)
		tr.Update(ev.Site, ev.X)
	}

	// ExactCount's barrier must surface all 300 events.
	if pc, _ := tr.ExactCount(0, evs[0].X[0], 0); pc == 0 {
		t.Fatal("ExactCount saw no increments through the barrier")
	}
	assertExactEquivalence(t, ref, tr)
	if got, want := tr.Events(), int64(len(evs)); got != want {
		t.Fatalf("events after barrier = %d, want %d", got, want)
	}

	// Structured queries (snapshot path) and the per-cell path must agree
	// with a fully flushed state.
	q := make([]int, m.Network().Len())
	if p := tr.QueryProb(q); p == 0 {
		t.Error("QueryProb = 0 against a 300-event tracker")
	}
	if c := tr.QueryCPD(0, evs[0].X[0], 0); c == 0 {
		t.Error("QueryCPD = 0 for an observed cell")
	}
}

// TestDeltaBufferedEventsLag documents the published-events semantics: below
// the cadence, Events stays 0 until a barrier or explicit flush publishes.
func TestDeltaBufferedEventsLag(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), bufferedCfg(Uniform, 1, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 50, 3)
	tr.UpdateEvents(evs)
	if got := tr.Events(); got != 0 {
		t.Fatalf("events before any barrier = %d, want 0 (parked in buffer)", got)
	}
	tr.FlushDeltas()
	if got := tr.Events(); got != 50 {
		t.Fatalf("events after FlushDeltas = %d, want 50", got)
	}
}

// TestDeltaBufferedCadenceAutoFlush: crossing DeltaFlushEvents publishes
// inline, without any barrier.
func TestDeltaBufferedCadenceAutoFlush(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), bufferedCfg(Uniform, 1, 64))
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 200, 5)
	tr.UpdateEvents(evs)
	// 200 events at cadence 64: three auto-publishes (192), 8 parked.
	if got := tr.Events(); got != 192 {
		t.Fatalf("published events = %d, want 192 (3 cadence flushes of 64)", got)
	}
	tr.FlushDeltas()
	if got := tr.Events(); got != 200 {
		t.Fatalf("events after barrier = %d, want 200", got)
	}
}

// TestDeltaBufferedIngestInvariant: an Ingest pump on a buffered tracker
// publishes everything it ingested before returning.
func TestDeltaBufferedIngestInvariant(t *testing.T) {
	m := testModel(t)
	const events = 3000
	evs := genEventStream(m, 4, events, 19)
	tr, err := NewTracker(m.Network(), bufferedCfg(NonUniform, 2, 256))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan Event, 64)
	go func() {
		for _, ev := range evs {
			ch <- ev
		}
		close(ch)
	}()
	n, err := tr.Ingest(context.Background(), ch)
	if err != nil {
		t.Fatal(err)
	}
	if n != events {
		t.Fatalf("Ingest returned %d, want %d", n, events)
	}
	if got := tr.Events(); got != events {
		t.Fatalf("events after Ingest returned = %d, want %d (pump must publish on exit)", got, events)
	}
}

// TestDeltaBufferedCheckpoint: SaveState on a buffered tracker captures
// parked increments, and restoring into a second buffered tracker
// reproduces the exact counts.
func TestDeltaBufferedCheckpoint(t *testing.T) {
	m := testModel(t)
	cfg := bufferedCfg(NonUniform, 2, 1<<20)
	tr, err := NewTracker(m.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := genEventStream(m, 4, 500, 7)
	tr.UpdateEvents(evs) // all parked below cadence

	var snap bytes.Buffer
	if err := tr.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := NewTracker(m.Network(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Park increments in the restored tracker pre-load: LoadState must not
	// let them leak into the restored state afterwards.
	restored.UpdateEvents(evs[:100])
	if err := restored.LoadState(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	assertExactEquivalence(t, tr, restored)
}

// TestDeltaBufferReleaseUnregisters: a released buffer is no longer reachable
// by barriers and its parked events were published by the release.
func TestDeltaBufferReleaseUnregisters(t *testing.T) {
	m := testModel(t)
	tr, err := NewTracker(m.Network(), bufferedCfg(Uniform, 1, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	d := tr.NewDeltaBuffer()
	evs := genEventStream(m, 4, 40, 13)
	d.AddEvents(evs)
	if got := tr.Events(); got != 0 {
		t.Fatalf("events before release = %d, want 0", got)
	}
	d.Release()
	if got := tr.Events(); got != 40 {
		t.Fatalf("events after release = %d, want 40", got)
	}
	tr.deltaMu.Lock()
	n := len(tr.deltaBufs)
	tr.deltaMu.Unlock()
	if n != 0 {
		t.Fatalf("registry holds %d buffers after release, want 0", n)
	}
}

// TestDeltaFlushEventsValidation rejects a negative cadence.
func TestDeltaFlushEventsValidation(t *testing.T) {
	m := testModel(t)
	cfg := cfgFor(Uniform, 1)
	cfg.DeltaFlushEvents = -1
	if _, err := NewTracker(m.Network(), cfg); err == nil {
		t.Error("negative DeltaFlushEvents accepted")
	}
}
