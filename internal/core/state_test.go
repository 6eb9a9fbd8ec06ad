package core

import (
	"bytes"
	"testing"

	"distbayes/internal/bn"
)

// genEvents pre-materializes a routed stream so two trackers can consume the
// exact same sequence.
func genEvents(m *bn.Model, count, sites int, seed uint64) (sitesOut []int, events [][]int) {
	s := m.NewSampler(seed)
	route := bn.NewRNG(seed + 1)
	for e := 0; e < count; e++ {
		x := append([]int(nil), s.Sample(nil)...)
		events = append(events, x)
		sitesOut = append(sitesOut, route.Intn(sites))
	}
	return
}

func TestCheckpointRoundTripEquivalence(t *testing.T) {
	m := chainModel(t, 20, 3, 4)
	net := m.Network()
	cfg := Config{Strategy: NonUniform, Eps: 0.15, Sites: 8, Seed: 99}
	sites, events := genEvents(m, 20000, cfg.Sites, 7)

	// Reference: uninterrupted run over all events.
	ref, err := NewTracker(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range events {
		ref.Update(sites[e], events[e])
	}

	// Checkpointed: first half, save, restore into a fresh tracker, second
	// half.
	first, err := NewTracker(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 10000; e++ {
		first.Update(sites[e], events[e])
	}
	var buf bytes.Buffer
	if err := first.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewTracker(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.Events() != 10000 {
		t.Fatalf("restored events = %d", restored.Events())
	}
	for e := 10000; e < len(events); e++ {
		restored.Update(sites[e], events[e])
	}

	// Bit-for-bit equivalence: message metrics and every CPD estimate.
	if restored.Messages() != ref.Messages() {
		t.Errorf("messages diverged: restored %+v, reference %+v", restored.Messages(), ref.Messages())
	}
	for i := 0; i < net.Len(); i++ {
		for pidx := 0; pidx < net.ParentCard(i); pidx++ {
			for v := 0; v < net.Card(i); v++ {
				a := restored.QueryCPD(i, v, pidx)
				b := ref.QueryCPD(i, v, pidx)
				if a != b {
					t.Fatalf("CPD(%d,%d,%d) diverged: %v vs %v", i, v, pidx, a, b)
				}
			}
		}
	}
}

func TestCheckpointExactStrategy(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	cfg := Config{Strategy: ExactMLE, Sites: 3}
	sites, events := genEvents(m, 5000, cfg.Sites, 3)

	tr, _ := NewTracker(net, cfg)
	for e := range events {
		tr.Update(sites[e], events[e])
	}
	var buf bytes.Buffer
	if err := tr.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	back, _ := NewTracker(net, cfg)
	if err := back.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if back.QueryProb([]int{1, 1, 1}) != tr.QueryProb([]int{1, 1, 1}) {
		t.Error("exact tracker state not restored")
	}
	if back.Events() != tr.Events() {
		t.Error("event count not restored")
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	m := testModel(t)
	cfgA := Config{Strategy: Uniform, Eps: 0.1, Sites: 3, Seed: 1}
	trA, _ := NewTracker(m.Network(), cfgA)
	var buf bytes.Buffer
	if err := trA.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// Different strategy.
	cfgB := cfgA
	cfgB.Strategy = NonUniform
	trB, _ := NewTracker(m.Network(), cfgB)
	if err := trB.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("strategy mismatch accepted")
	}
	// Different sites.
	cfgC := cfgA
	cfgC.Sites = 4
	trC, _ := NewTracker(m.Network(), cfgC)
	if err := trC.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("site-count mismatch accepted")
	}
	// Different network.
	other := chainModel(t, 5, 2, 9)
	trD, _ := NewTracker(other.Network(), cfgA)
	if err := trD.LoadState(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("network mismatch accepted")
	}
	// Garbage input.
	trE, _ := NewTracker(m.Network(), cfgA)
	if err := trE.LoadState(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

// TestRefusedLoadStateLeavesTrackerIntact: a checkpoint whose last bank
// record is refused must change nothing — not the banks before it, not the
// event count, tallies or RNG states, and not the cached snapshot — so the
// tracker keeps answering from its own state.
func TestRefusedLoadStateLeavesTrackerIntact(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	evs := genEventStream(m, 4, 3000, 71)
	for _, shards := range []int{1, 3} {
		cfg := cfgFor(NonUniform, shards)
		tr, err := NewTracker(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewTracker(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr.UpdateEvents(evs[:1000])
		ckpt := stateBytes(t, tr) // a valid checkpoint of an older state
		tr.UpdateEvents(evs[1000:2999])
		ref.UpdateEvents(evs[:1000])
		ref.UpdateEvents(evs[1000:2999])
		q := make([]int, net.Len())
		_ = tr.QueryProb(q) // cache a snapshot of the current state
		before := stateBytes(t, tr)

		// The last record is the parent bank of the last variable: flip its
		// state-version byte so the bank refuses it.
		bad := append([]byte(nil), ckpt...)
		bad[len(bad)-tr.par[net.Len()-1].StateLen()] ^= 0xff
		if err := tr.LoadState(bytes.NewReader(bad)); err == nil {
			t.Fatalf("shards=%d: corrupt last bank record accepted", shards)
		}
		if !bytes.Equal(stateBytes(t, tr), before) {
			t.Errorf("shards=%d: refused LoadState changed the tracker's state", shards)
		}
		tr.Update(evs[2999].Site, evs[2999].X)
		ref.Update(evs[2999].Site, evs[2999].X)
		for _, ev := range evs[:50] {
			if got, want := tr.QueryProb(ev.X), ref.QueryProb(ev.X); got != want {
				t.Fatalf("shards=%d: QueryProb(%v) = %v after a refused load, want %v", shards, ev.X, got, want)
			}
		}
	}
}

// rngZeroed returns snap with stripe s's RNG state words zeroed (they follow
// the magic, the fingerprint, the event count and the two tallies).
func rngZeroed(snap []byte, s int) []byte {
	bad := append([]byte(nil), snap...)
	clear(bad[8+8+8+16+32*s:][:32])
	return bad
}

// TestLoadStateRefusesZeroRNGState: the all-zero RNG state is xoshiro256**'s
// fixed point — it draws 0 for ever, so every sampling-mode coin of its
// stripe reports — and a checkpoint carrying it for any stripe is refused
// before anything changes.
func TestLoadStateRefusesZeroRNGState(t *testing.T) {
	m := testModel(t)
	evs := genEventStream(m, 4, 2000, 73)
	for _, shards := range []int{1, 3} {
		tr, err := NewTracker(m.Network(), cfgFor(NonUniform, shards))
		if err != nil {
			t.Fatal(err)
		}
		tr.UpdateEvents(evs[:1000])
		ckpt := stateBytes(t, tr)
		tr.UpdateEvents(evs[1000:])
		before := stateBytes(t, tr)
		for s := 0; s < shards; s++ {
			if err := tr.LoadState(bytes.NewReader(rngZeroed(ckpt, s))); err == nil {
				t.Fatalf("shards=%d: all-zero RNG state of stripe %d accepted", shards, s)
			}
			if !bytes.Equal(stateBytes(t, tr), before) {
				t.Fatalf("shards=%d: refused LoadState (stripe %d) changed the tracker's state", shards, s)
			}
		}
		if err := tr.LoadState(bytes.NewReader(ckpt)); err != nil {
			t.Fatalf("shards=%d: intact checkpoint refused: %v", shards, err)
		}
	}
}
