package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/counter"
	"distbayes/internal/netgen"
)

// stateBytes is the strictest fingerprint a tracker has: its checkpoint holds
// the event count, the message tallies, every stripe's RNG position and every
// bank's full protocol state.
func stateBytes(t *testing.T, tr *Tracker) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStripedSingleWriterSchedule pins what the bank-major engine promises a
// single writer on a striped tracker: the randomized message schedule is a
// function of seed, event order and batching — two runs with the same
// batching are bit-identical, and batches of one are bit-identical to
// per-event Update — while a different batching may move the schedule but
// never an exact count. munin (1041 variables) makes a pass 62 events, so its
// 150-event batches also cover the entry-bounded pass size and a short tail.
func TestStripedSingleWriterSchedule(t *testing.T) {
	munin, err := netgen.ModelByName("munin")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		model  *bn.Model
		events int
	}{
		{"small", testModel(t), 6000},
		{"munin", munin, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const batch = 150
			net, events := tc.model.Network(), genEventStream(tc.model, 4, tc.events, 5)
			run := func(batch int) *Tracker {
				tr, err := NewTracker(net, cfgFor(NonUniform, 4))
				if err != nil {
					t.Fatal(err)
				}
				if batch == 0 {
					for _, ev := range events {
						tr.Update(ev.Site, ev.X)
					}
					return tr
				}
				for lo := 0; lo < len(events); lo += batch {
					tr.UpdateEvents(events[lo:min(lo+batch, len(events))])
				}
				return tr
			}
			perEvent, ones := run(0), run(1)
			if !bytes.Equal(stateBytes(t, perEvent), stateBytes(t, ones)) {
				t.Error("UpdateEvents in batches of one differs from per-event Update")
			}
			a, b := run(batch), run(batch)
			if !bytes.Equal(stateBytes(t, a), stateBytes(t, b)) {
				t.Errorf("two single-writer runs with seed, order and batching fixed (%d) differ", batch)
			}
			if a.Events() != perEvent.Events() {
				t.Fatalf("events = %d, want %d", a.Events(), perEvent.Events())
			}
			for i := 0; i < net.Len(); i += 1 + net.Len()/50 {
				for pidx := 0; pidx < net.ParentCard(i); pidx++ {
					for v := 0; v < net.Card(i); v++ {
						gp, gq := a.ExactCount(i, v, pidx)
						wp, wq := perEvent.ExactCount(i, v, pidx)
						if gp != wp || gq != wq {
							t.Fatalf("var %d cell (%d,%d): batched counts %d/%d, per-event %d/%d", i, v, pidx, gp, gq, wp, wq)
						}
					}
				}
			}
		})
	}
}

// TestMessagesWhileIngesting runs two writers against a striped tracker —
// one through UpdateEvents, one through Update, then a third through
// UpdateEvents alone — while another goroutine polls Messages: the published tally never goes
// backwards, and once the writers have returned it is complete (for ExactMLE
// exactly 2·n messages per event; no stripe is left holding an unpublished
// tally). Under -race this is also the proof that stripe-local tallies are
// only touched under their stripe lock.
func TestMessagesWhileIngesting(t *testing.T) {
	m := testModel(t)
	const sites, events = 4, 8000
	evs := genEventStream(m, sites, events, 23)
	n := int64(m.Network().Len())

	for _, tc := range []struct {
		name string
		st   Strategy
	}{
		{"flat-exact", ExactMLE},
		{"flat-nonuniform", NonUniform},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTracker(m.Network(), cfgFor(tc.st, 4))
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var poller sync.WaitGroup
			poller.Add(1)
			go func() {
				defer poller.Done()
				var last counter.Metrics
				for !stop.Load() {
					got := tr.Messages()
					if got.SiteToCoord < last.SiteToCoord || got.CoordToSite < last.CoordToSite {
						t.Errorf("Messages went backwards: %+v after %+v", got, last)
						return
					}
					last = got
				}
			}()

			var writers sync.WaitGroup
			half := evs[:events/2]
			writers.Add(2)
			go func() {
				defer writers.Done()
				for lo := 0; lo < len(half); lo += 100 {
					tr.UpdateEvents(half[lo:min(lo+100, len(half))])
				}
			}()
			go func() {
				defer writers.Done()
				for _, ev := range evs[events/2 : 3*events/4] {
					tr.Update(ev.Site, ev.X)
				}
			}()
			writers.Wait()
			// The last quarter arrives through one UpdateEvents writer, alone,
			// so that its last pass is the final locked section on every
			// stripe.
			tr.UpdateEvents(evs[3*events/4:])
			stop.Store(true)
			poller.Wait()

			if tr.Events() != events {
				t.Fatalf("events = %d, want %d", tr.Events(), events)
			}
			got := tr.Messages()
			if tc.st == ExactMLE {
				if want := (counter.Metrics{SiteToCoord: 2 * n * events}); got != want {
					t.Errorf("messages = %+v, want %+v", got, want)
				}
			} else if got.SiteToCoord == 0 || got.CoordToSite == 0 {
				t.Errorf("messages = %+v: nothing published", got)
			}
			for s := range tr.shards {
				if tally := tr.shards[s].tally; tally != (counter.Metrics{}) {
					t.Errorf("stripe %d holds an unpublished tally %+v with no lock held", s, tally)
				}
			}
		})
	}
}

// TestDeprecatedDeltaKnobsAreAliases: DeltaBuffered and DeltaFlushEvents
// change nothing. With them set, a single writer feeding fixed batches gets
// the tracker Shards selects — the same Events, Messages, estimates and
// checkpoint bytes as without them — and a DeltaBuffer's AddEvents has
// ingested before any Flush.
func TestDeprecatedDeltaKnobsAreAliases(t *testing.T) {
	m := testModel(t)
	net := m.Network()
	evs := genEventStream(m, 4, 3000, 31)
	det := cfgFor(NonUniform, 0)
	det.Counter, det.Delta = DeterministicCounter, 0
	for _, shards := range []int{1, 3} {
		for _, base := range []Config{cfgFor(NonUniform, 0), cfgFor(ExactMLE, 0), det} {
			base.Shards = shards
			t.Run(fmt.Sprintf("%s-counter%d-shards=%d", base.Strategy, base.Counter, shards), func(t *testing.T) {
				run := func(cfg Config) *Tracker {
					tr, err := NewTracker(net, cfg)
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(evs); lo += 64 {
						tr.UpdateEvents(evs[lo:min(lo+64, len(evs))])
					}
					return tr
				}
				aliased := base
				aliased.DeltaBuffered, aliased.DeltaFlushEvents = true, 7
				want, got := run(base), run(aliased)
				if got.Events() != want.Events() || got.Messages() != want.Messages() {
					t.Fatalf("events %d messages %+v, want %d %+v", got.Events(), got.Messages(), want.Events(), want.Messages())
				}
				var wr, gr CPDRows
				for i := 0; i < net.Len(); i++ {
					want.ReadCPDRows(i, &wr)
					got.ReadCPDRows(i, &gr)
					for c := range wr.Pair {
						if math.Float64bits(gr.Pair[c]) != math.Float64bits(wr.Pair[c]) {
							t.Fatalf("var %d pair cell %d: %v, want %v", i, c, gr.Pair[c], wr.Pair[c])
						}
					}
					for c := range wr.Par {
						if math.Float64bits(gr.Par[c]) != math.Float64bits(wr.Par[c]) {
							t.Fatalf("var %d parent cell %d: %v, want %v", i, c, gr.Par[c], wr.Par[c])
						}
					}
				}
				if !bytes.Equal(stateBytes(t, got), stateBytes(t, want)) {
					t.Error("SaveState bytes differ")
				}

				buf := got.NewDeltaBuffer()
				buf.AddEvents(evs[:64])
				if got.Events() != want.Events()+64 {
					t.Errorf("events after AddEvents = %d, want %d before any Flush", got.Events(), want.Events()+64)
				}
				buf.Flush()
				buf.Release()
			})
		}
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
