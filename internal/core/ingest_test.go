package core

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	for _, shards := range []int{1, 3} {
		for _, base := range []Config{cfgFor(NonUniform, 0), cfgFor(ExactMLE, 0)} {
			base.Shards = shards
			// "counter0" is the fingerprint's counter word (HYZ), kept in the
			// name from when the deterministic counter had a row here.
			t.Run(fmt.Sprintf("%s-counter0-shards=%d", base.Strategy, shards), func(t *testing.T) {
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
				for i := 0; i < net.Len(); i++ {
					wPair, wPar := rawRows(want, i)
					gPair, gPar := rawRows(got, i)
					for c := range wPair {
						if math.Float64bits(gPair[c]) != math.Float64bits(wPair[c]) {
							t.Fatalf("var %d pair cell %d: %v, want %v", i, c, gPair[c], wPair[c])
						}
					}
					for c := range wPar {
						if math.Float64bits(gPar[c]) != math.Float64bits(wPar[c]) {
							t.Fatalf("var %d parent cell %d: %v, want %v", i, c, gPar[c], wPar[c])
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

// TestColumnCellsMatchParentIndex holds the column pass to the cell ids the
// network defines: on alarm, munin and hepar2 (up to five parents), at pass
// sizes 1, 7, 8, 9, 61 and 62 — inside, at and past one transpose block, and
// munin's full pass — every pair cell is ParentIndex·J_i + x_i and every
// parent cell ParentIndex.
func TestColumnCellsMatchParentIndex(t *testing.T) {
	for _, name := range []string{"alarm", "munin", "hepar2"} {
		model, err := netgen.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		net := model.Network()
		if name == "hepar2" && net.MaxInDegree() < 3 {
			t.Fatalf("hepar2's largest parent set is %d; the test wants 3 or more", net.MaxInDegree())
		}
		tr, err := NewTracker(net, cfgFor(ExactMLE, 4))
		if err != nil {
			t.Fatal(err)
		}
		n, evs := net.Len(), genEventStream(model, 4, 62, 41)
		for _, q := range []int{1, 7, 8, 9, 61, 62} {
			xs := make([][]int, q)
			for e := range xs {
				xs[e] = evs[e].X
			}
			cells := make([]int32, 2*n*q)
			for c := range cells {
				cells[c] = -1 // a cell the pass does not write stays -1
			}
			tr.columnCells(0, xs, make([]int32, n*q), cells)
			for i := range n {
				for e, x := range xs {
					pidx := net.ParentIndex(i, x)
					if got, want := cells[2*q*i+e], int32(pidx*net.Card(i)+x[i]); got != want {
						t.Fatalf("%s q=%d: variable %d event %d: pair cell %d, want %d", name, q, i, e, got, want)
					}
					if got := cells[2*q*i+q+e]; got != int32(pidx) {
						t.Fatalf("%s q=%d: variable %d event %d: parent cell %d, want %d", name, q, i, e, got, pidx)
					}
				}
			}
		}
	}
}

// TestMalformedEventLeavesTrackerUsable feeds rows the index phase must
// reject — a root value equal to its card, a non-root one (which the parent
// row arithmetic would fold into the next parent row), a negative value, one
// whose low 32 bits are a valid value, a short and a long row — alone, in the
// middle of a pass and in a call's second pass. Each call panics with the
// index phase's message, not a runtime error from deeper down. Then no stripe
// lock is held, a query and an update finish, and the tracker's state is that
// of a tracker fed only the passes before the rejected one: the rejected
// event's pass changed no counter, and Events counts exactly the applied
// events.
func TestMalformedEventLeavesTrackerUsable(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	net := model.Network()
	root, child := -1, -1
	for i := range net.Len() {
		if len(net.Parents(i)) == 0 && root < 0 {
			root = i
		} else if len(net.Parents(i)) > 0 && child < 0 {
			child = i
		}
	}
	evs := genEventStream(model, 4, 200, 13)
	const warm = 100
	edited := func(edit func(x []int) []int) []int {
		return edit(append([]int(nil), evs[0].X...))
	}
	rows := []struct {
		name string
		x    []int
	}{
		{"root value = card", edited(func(x []int) []int { x[root] = net.Card(root); return x })},
		{"non-root value = card", edited(func(x []int) []int { x[child] = net.Card(child); return x })},
		{"negative value", edited(func(x []int) []int { x[child] = -1; return x })},
		{"value past int32", edited(func(x []int) []int { x[child] = math.MaxInt - math.MaxUint32; return x })},
		{"short row", edited(func(x []int) []int { return x[:len(x)-1] })},
		{"long row", edited(func(x []int) []int { return append(x, 0) })},
	}
	pass := min(maxPassEvents, maxPassEntries/(2*net.Len()))
	for _, shards := range []int{1, 4} {
		for _, row := range rows {
			bad := Event{Site: 1, X: row.x}
			for _, at := range []struct {
				name    string
				batch   []Event
				applied int
			}{
				{"alone", []Event{bad}, 0},
				{"mid-pass", append(append(append([]Event(nil), evs[warm:warm+10]...), bad), evs[warm+10:warm+20]...), 0},
				{"second pass", append(append([]Event(nil), evs[warm:warm+pass+5]...), bad), pass},
			} {
				name := fmt.Sprintf("shards=%d/%s/%s", shards, row.name, at.name)
				tr, err := NewTracker(net, cfgFor(NonUniform, shards))
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewTracker(net, cfgFor(NonUniform, shards))
				if err != nil {
					t.Fatal(err)
				}
				tr.UpdateEvents(evs[:warm])
				ref.UpdateEvents(evs[:warm])
				ref.UpdateEvents(at.batch[:at.applied])
				if msg, _ := panicOf(func() { tr.UpdateEvents(at.batch) }).(string); !strings.HasPrefix(msg, "core: event ") {
					t.Fatalf("%s: the malformed event was not rejected by the index phase (panic %q)", name, msg)
				}
				for s := range tr.shards {
					if !tr.shards[s].mu.TryLock() {
						t.Errorf("%s: stripe %d is still locked after the rejected call", name, s)
						continue
					}
					tr.shards[s].mu.Unlock()
				}
				// Everything that takes a stripe lock runs behind a bounded wait.
				var state bytes.Buffer
				var saveErr error
				done := make(chan struct{})
				go func() {
					defer close(done)
					tr.QueryProb(evs[0].X)
					saveErr = tr.SaveState(&state)
					tr.UpdateEvents(evs[warm : warm+10])
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: a query and an update after the rejected call did not finish", name)
				}
				if saveErr != nil {
					t.Fatal(saveErr)
				}
				if !bytes.Equal(state.Bytes(), stateBytes(t, ref)) {
					t.Errorf("%s: state differs from a tracker fed the %d applied events", name, at.applied)
				}
				if want := int64(warm + at.applied + 10); tr.Events() != want {
					t.Errorf("%s: Events() = %d, want %d", name, tr.Events(), want)
				}
			}
		}
	}
}

// panicOf runs f and returns what it panicked with, or nil.
func panicOf(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}
