package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"distbayes/internal/core"
)

// allEstimates reads every counter's estimate from the walk the
// coordinator's snapshots are built from.
func allEstimates(co *Coordinator) []float64 {
	est := make([]float64, co.layout.NumCounters())
	co.mu.Lock()
	defer co.mu.Unlock()
	co.estimatesLocked(est)
	return est
}

// structRows copies each site's cumulative struct row and stamped stream
// position out of the coordinator's structure engine.
func structRows(co *Coordinator) (rows [][]int64, siteEvents []uint64) {
	e := co.structs
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, row := range e.perSite {
		rows = append(rows, slices.Clone(row))
	}
	return rows, slices.Clone(e.siteEvents)
}

// TestTreeStructRowsMatchFlat: with structure learning on, the struct
// statistics travel the relay tree too (Relay.foldStruct, frameRelayStruct,
// the coordinator's grouped struct fold), and each site's cumulative
// pair-count row and stamped position at the coordinator equal a flat run's.
// Those do not depend on the interleaving, unlike Swaps and Epoch, which
// depend on which sites' statistics a relearn happened to see and stay
// unpinned with two or more sites. That the counter estimates of a tree
// equal the flat run's is TestMatrix's relay rows.
func TestTreeStructRowsMatchFlat(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 8, Events: 48000, StreamSeed: 7,
		SiteBatchEvents: 200, StructBatchEvents: 256,
	}
	_, flatCo, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, treeCo, _, err := RunLocalTree(cfg, 4, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	flatRows, flatPos := structRows(flatCo)
	treeRows, treePos := structRows(treeCo)
	for site := range flatRows {
		if flatPos[site] != uint64(cfg.eventsFor(uint32(site))) || treePos[site] != flatPos[site] {
			t.Errorf("site %d struct position: flat %d, tree %d, want %d",
				site, flatPos[site], treePos[site], cfg.eventsFor(uint32(site)))
		}
		if !slices.Equal(flatRows[site], treeRows[site]) {
			t.Errorf("site %d: cumulative struct row differs between flat and tree", site)
		}
	}
	if st := treeCo.StructLearnStats(); st.Relearns == 0 || st.Epoch == 0 {
		t.Errorf("tree run never learned a structure: %+v", st)
	}
}

// TestTreePerEventProtocol runs the tree under protocol v1 (one frame per
// triggering event — the worst case for root frame load) and checks both the
// bit-identical estimates and that the fold absorbs the much higher
// downstream frame rate.
func TestTreePerEventProtocol(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 6, Events: 6000, StreamSeed: 11,
	}
	_, flatCo, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := allEstimates(flatCo)
	treeRes, treeCo, _, err := RunLocalTree(cfg, 3, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tree := allEstimates(treeCo)
	for id := range flat {
		if flat[id] != tree[id] {
			t.Fatalf("counter %d: flat %v, tree %v", id, flat[id], tree[id])
		}
	}
	if treeRes.Stats.Events != int64(cfg.Events) {
		t.Errorf("events = %d, want %d", treeRes.Stats.Events, cfg.Events)
	}
}

// TestRelayDoneFollowsFinalCounts pins the upstream frame order a relay's
// parent relies on: the Done a relay forwards for a site follows the grouped
// frame carrying that site's last folded count. The parent is a bare listener
// that reads what the relay writes; the sites are bare connections that each
// send a run of frames raising one counter and then Done, all at once, while
// the relay's flusher — on the shortest interval, so it drains all the time —
// races them. (A flush used to drain the dirty sets under one lock and write
// them under another, so a site's Done could find nothing left to flush and
// go out ahead of the flusher's drained but unwritten frame: the flake in
// TestTreePerEventProtocol.)
func TestRelayDoneFollowsFinalCounts(t *testing.T) {
	const sites, frames = 32, 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	relay, err := NewRelay(RelayConfig{Parent: ln.Addr().String(), FlushInterval: time.Nanosecond}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	relayDone := make(chan error, 1)
	go func() { relayDone <- relay.Run() }()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// Runs before raw is closed: a relay that lost its parent would redial.
	defer func() {
		relay.Close()
		<-relayDone
	}()
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	up := newConn(raw)
	if ft, _, err := up.readFrame(); err != nil || ft != frameRelayHello {
		t.Fatalf("relay opened with frame %d (%v), want relayHello", ft, err)
	}
	base := StartConfig{NetName: "alarm", Strategy: uint8(core.NonUniform), Eps: 0.1, Delta: 0.25, Sites: sites}
	if err := up.send(frameStart, encodeStart(base)); err != nil {
		t.Fatal(err)
	}
	up.setReadLimit(maxFrame)

	wait := startSites(sites, func(i int) (struct{}, error) {
		c, err := net.Dial("tcp", relay.Addr())
		if err != nil {
			return struct{}{}, err
		}
		defer c.Close()
		w := newConn(c)
		if err := w.writeFrame(frameHello, encodeHello(uint32(i))); err != nil {
			return struct{}{}, err
		}
		for n := int64(1); n <= frames; n++ {
			if err := w.send(frameUpdates2, encodeUpdates2(nil, []Update{{Counter: 0, LocalCount: n}})); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, w.send(frameDone, encodeDone(uint32(i), frames))
	})

	var seen [sites]int64
	for dones := 0; dones < sites; {
		ft, payload, err := up.readFrame()
		if err != nil {
			t.Fatalf("after %d of %d Done markers: %v", dones, sites, err)
		}
		switch ft {
		case frameRelayUpdates:
			groups, err := decodeRelayGroups(nil, payload, sites, maxFrame)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range groups {
				ups, err := decodeUpdates2(nil, g.Payload, 1)
				if err != nil {
					t.Fatal(err)
				}
				seen[g.Site] = max(seen[g.Site], ups[0].LocalCount)
			}
		case frameRelayJoin:
			site, kind, _, err := decodeRelayWrapped(payload)
			if err != nil {
				t.Fatal(err)
			}
			if kind != relayJoinDone {
				continue
			}
			dones++
			if seen[site] != frames {
				t.Errorf("site %d: Done arrived with its counter at %d of %d — the marker overtook its final counts",
					site, seen[site], frames)
			}
		}
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestRelayCloseInterruptsUpstreamHandshake: a parent that accepts and reads
// the relay's hello but never answers must not keep Run alive past Close, on
// the first dial or on a reconnect. (The connection being handshaken used to
// be invisible to Close until the handshake finished.)
func TestRelayCloseInterruptsUpstreamHandshake(t *testing.T) {
	for _, reconnect := range []bool{false, true} {
		t.Run(fmt.Sprintf("reconnect=%v", reconnect), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			relay, err := NewRelay(RelayConfig{Parent: ln.Addr().String()}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			runDone := make(chan error, 1)
			go func() { runDone <- relay.Run() }()
			// acceptHello takes the relay's next upstream connection and reads
			// its opening frame. Its cleanup closes the parent's end last, so
			// only the relay's Close can unblock Run before the deadline.
			acceptHello := func() (net.Conn, *conn) {
				raw, err := ln.Accept()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { raw.Close() })
				c := newConn(raw)
				if ft, _, err := c.readFrame(); err != nil || ft != frameRelayHello {
					t.Fatalf("relay opened with frame %d (%v), want relayHello", ft, err)
				}
				return raw, c
			}
			raw, up := acceptHello()
			if reconnect {
				base := StartConfig{NetName: "alarm", Strategy: uint8(core.NonUniform), Eps: 0.1, Delta: 0.25, Sites: 2}
				if err := up.send(frameStart, encodeStart(base)); err != nil {
					t.Fatal(err)
				}
				raw.Close() // the relay redials
				acceptHello()
			}
			relay.Close()
			select {
			case <-runDone:
			case <-time.After(10 * time.Second):
				t.Fatal("Run still blocked 10 s after Close: the handshake in progress was not interrupted")
			}
		})
	}
}

// TestRelayUpstreamSevered cuts the relay's upstream link repeatedly while
// the sites stream — the chaos case the ISSUE calls out. The relay
// reconnects and replays its full folded vectors (plus membership and Done
// markers), the coordinator's max-merge absorbs the re-shipped state, and
// the final estimates stay bit-identical to a flat run.
func TestRelayUpstreamSevered(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 4, Events: 40000, StreamSeed: 29,
		SiteBatchEvents: 100,
		// Site-side latency slows the stream enough that the severed window
		// reliably lands mid-run.
		LatencyMicros: 50,
	}
	_, flatCo, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := allEstimates(flatCo)

	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	relay, err := NewRelay(RelayConfig{ID: 0, Parent: co.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	go relay.Run()

	// The severing goroutine: cut the live upstream connection a few times
	// while frames flow.
	sever := make(chan struct{})
	go func() {
		defer close(sever)
		for cut := 0; cut < 3; cut++ {
			time.Sleep(30 * time.Millisecond)
			relay.upMu.Lock()
			if relay.upRaw != nil {
				relay.upRaw.Close()
			}
			relay.upMu.Unlock()
		}
	}()

	type out struct {
		stats Stats
		err   error
	}
	outs := make(chan out, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		go func(i int) {
			st, err := NewSite(uint32(i), relay.Addr()).Run()
			outs <- out{st, err}
		}(i)
	}
	res, err := co.Serve()
	if err != nil {
		t.Fatal(err)
	}
	<-sever
	for i := 0; i < cfg.Sites; i++ {
		if o := <-outs; o.err != nil {
			t.Fatal(o.err)
		}
	}
	if res.Stats.Events != int64(cfg.Events) {
		t.Fatalf("events = %d, want %d", res.Stats.Events, cfg.Events)
	}
	got := allEstimates(co)
	for id := range flat {
		if flat[id] != got[id] {
			t.Fatalf("counter %d: flat %v, severed-relay %v", id, flat[id], got[id])
		}
	}
}

// TestRelayRestart kills the relay process mid-run and starts a fresh one on
// the same address: the relay holds no state a site cannot regenerate, so
// the sites' own resume replays (through the new relay) heal everything and
// the final estimates stay bit-identical to a flat run.
func TestRelayRestart(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 3, Events: 30000, StreamSeed: 31,
		SiteBatchEvents: 100,
		LatencyMicros:   50,
	}
	_, flatCo, err := RunLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flat := allEstimates(flatCo)

	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	relay, err := NewRelay(RelayConfig{ID: 0, Parent: co.Addr()}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go relay.Run()
	relayAddr := relay.Addr()

	type out struct {
		stats Stats
		err   error
	}
	outs := make(chan out, cfg.Sites)
	for i := 0; i < cfg.Sites; i++ {
		go func(i int) {
			st, err := NewSite(uint32(i), relayAddr).Run()
			outs <- out{st, err}
		}(i)
	}

	// Kill the relay mid-run and restart it on the same address (retrying
	// the bind while the kernel releases the port). The disconnected sites
	// back off, redial, and resume through the fresh relay.
	restarted := make(chan error, 1)
	go func() {
		time.Sleep(40 * time.Millisecond)
		relay.Close()
		var r2 *Relay
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			if r2, err = NewRelay(RelayConfig{ID: 0, Parent: co.Addr()}, relayAddr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			restarted <- err
			return
		}
		t.Cleanup(func() { r2.Close() })
		go r2.Run()
		restarted <- nil
	}()

	res, err := co.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-restarted; err != nil {
		t.Fatalf("relay restart: %v", err)
	}
	for i := 0; i < cfg.Sites; i++ {
		if o := <-outs; o.err != nil {
			t.Fatal(o.err)
		}
	}
	if res.Stats.Events != int64(cfg.Events) {
		t.Fatalf("events = %d, want %d", res.Stats.Events, cfg.Events)
	}
	got := allEstimates(co)
	for id := range flat {
		if flat[id] != got[id] {
			t.Fatalf("counter %d: flat %v, restarted-relay %v", id, flat[id], got[id])
		}
	}
}

// TestRelayWrappedCodecRoundTrips pins the relay wire additions: the
// wrapped control codec and the grouped multi-site data codec.
func TestRelayWrappedCodecRoundTrips(t *testing.T) {
	site, kind, inner, err := decodeRelayWrapped(encodeRelayWrapped(7, relayJoinResume, []byte{1, 2, 3}))
	if err != nil || site != 7 || kind != relayJoinResume || len(inner) != 3 {
		t.Fatalf("wrapped round trip: %d %d %v %v", site, kind, inner, err)
	}
	if _, _, _, err := decodeRelayWrapped([]byte{1, 2, 3}); err == nil {
		t.Error("short wrapped frame accepted")
	}

	groups := []relayGroup{
		{Site: 0, Payload: encodeUpdates2(nil, []Update{{Counter: 1, LocalCount: 5}})},
		{Site: 3, Payload: encodeUpdates2(nil, []Update{{Counter: 0, LocalCount: 2}, {Counter: 9, LocalCount: 1 << 33}})},
	}
	dec, err := decodeRelayGroups(nil, encodeRelayGroups(nil, groups), 8, updatesPayloadCap(fuzzMaxCounters))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(groups) {
		t.Fatalf("group count %d, want %d", len(dec), len(groups))
	}
	for i := range groups {
		if dec[i].Site != groups[i].Site {
			t.Errorf("group %d site %d, want %d", i, dec[i].Site, groups[i].Site)
		}
		if string(dec[i].Payload) != string(groups[i].Payload) {
			t.Errorf("group %d payload changed", i)
		}
	}
	// Site id out of the declared range must be rejected.
	bad := encodeRelayGroups(nil, []relayGroup{{Site: 8, Payload: []byte{0}}})
	if _, err := decodeRelayGroups(nil, bad, 8, 64); err == nil {
		t.Error("out-of-range group site accepted")
	}
}

// TestCoordinatorCloseClosesRelayLinks pins that Close means closed for
// relay-routed runs: a coordinator stopped mid-stream must close the relay's
// uplink too (a relay-routed slot has no connection of its own to close), so
// the relay sees its parent die — its upstream read fails, it enters
// reconnect, and with the listener gone it gives up — instead of reading a
// half-dead connection forever. Close must also return, having joined the
// accept loop and every connection reader.
func TestCoordinatorCloseClosesRelayLinks(t *testing.T) {
	cfg := Config{
		NetName: "alarm", CPTSeed: 0xC0DE, Strategy: core.NonUniform,
		Eps: 0.1, Delta: 0.25, Sites: 2, Events: 40000, StreamSeed: 5,
		SiteBatchEvents: 50,
		// The relay coalesces whatever its sites deliver between two flushes,
		// so sites that outrun its flush loop could finish the run in fewer
		// upstream frames than the kill below waits for. A site-side pause
		// after every window keeps the ~800 window frames arriving as rounds.
		LatencyMicros: 50,
	}
	co, err := NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The kill lands mid-stream at a deterministic frame: well past the two
	// joins, far before the run's ~800 window frames.
	co.CrashAfterFrames = 12
	relay, err := NewRelay(RelayConfig{
		ID: 0, Parent: co.Addr(), DialAttempts: 2, RetryBase: time.Millisecond, RetryCap: 5 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	relayErr := make(chan error, 1)
	go func() { relayErr <- relay.Run() }()

	wait := startSites(cfg.Sites, func(i int) (Stats, error) {
		s := NewSite(uint32(i), relay.Addr())
		s.DialAttempts, s.MaxResumes = 1, 1
		s.RetryBase, s.RetryCap = time.Millisecond, 5*time.Millisecond
		return s.Run()
	})

	if _, err := co.Serve(); !errors.Is(err, ErrCoordinatorClosed) {
		t.Fatalf("Serve returned %v, want ErrCoordinatorClosed", err)
	}
	select {
	case err := <-relayErr:
		if err == nil || errors.Is(err, ErrRelayClosed) {
			t.Fatalf("relay.Run returned %v, want a failed reconnect to the dead parent", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("relay never noticed its parent die: the coordinator's Close left the relay uplink open")
	}
	closed := make(chan struct{})
	go func() { co.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Coordinator.Close did not return: a connection reader outlived it")
	}
	// The sites lose the run with their relay's parent; they must fail, not hang.
	relay.Close()
	if _, err := wait(); err == nil {
		t.Fatal("sites completed a run whose coordinator was killed")
	}
}
