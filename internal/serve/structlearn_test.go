package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/cluster"
	"distbayes/internal/core"
	"distbayes/internal/stream"
)

// TestServeLearnedStructureHotSwap serves live from a coordinator's online
// learned structure while the generating network drifts mid-stream, under
// -race: the structure engine hot-swaps trees underneath the HTTP server
// while clients hammer it. Per client, snapshot versions and the structure
// epoch must both be non-decreasing across every swap; 503s are legal only
// before the first learned tree lands (the documented cold start).
func TestServeLearnedStructureHotSwap(t *testing.T) {
	events := 12000
	if testing.Short() {
		events = 4000
	}
	cfg := cluster.Config{
		NetName: "tree:10:3:3", CPTSeed: 0xC0DE, Strategy: core.Uniform,
		Eps: 0.1, Delta: 0.25, Sites: 3, Events: events, StreamSeed: 5,
		StructBatchEvents:  64,
		StructWindowEvents: int64(events) / 4,
		StructWindowBlocks: 4,
		DriftNetName:       "tree:10:3:77",
		DriftAfter:         0.5,
		DriftCPTSeed:       0xD21F,
	}
	co, err := cluster.NewCoordinator(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := startServer(t, Config{Source: NewLearnedCoordinatorSource(co), MaxSnapshotAge: time.Millisecond})

	var siteWG sync.WaitGroup
	for i := 0; i < cfg.Sites; i++ {
		siteWG.Add(1)
		go func(id uint32) {
			defer siteWG.Done()
			if _, err := cluster.NewSite(id, co.Addr()).Run(); err != nil {
				t.Errorf("site %d: %v", id, err)
			}
		}(uint32(i))
	}

	done := make(chan struct{})
	var okQueries, coldQueries atomic.Int64
	var clientWG sync.WaitGroup
	for c := 0; c < 2; c++ {
		clientWG.Add(1)
		go func(c int) {
			defer clientWG.Done()
			client := &http.Client{}
			rng := bn.NewRNG(uint64(c) + 33)
			var x []int
			var lastVersion, lastEpoch uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				x = stream.RandomAssignment(co.Network(), rng, x)
				resp, err := client.Post("http://"+srv.Addr()+"/v1/queryprob",
					"text/plain", bytes.NewBufferString(csvBody(x)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var env struct {
					Result struct {
						P float64 `json:"p"`
					} `json:"result"`
					Snapshot struct {
						Version        uint64 `json:"version"`
						StructureEpoch uint64 `json:"structure_epoch"`
					} `json:"snapshot"`
				}
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					// Cold start: no learned tree yet. Once a snapshot has
					// been served the server answers degraded, never 503.
					if okQueries.Load() > 0 && lastVersion > 0 {
						t.Errorf("client %d: 503 after successful serving began", c)
						return
					}
					coldQueries.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				if math.IsNaN(env.Result.P) || env.Result.P < 0 || env.Result.P > 1 {
					t.Errorf("client %d: bad probability %v", c, env.Result.P)
					return
				}
				if env.Snapshot.Version < lastVersion {
					t.Errorf("client %d: version went backwards across swap: %d -> %d",
						c, lastVersion, env.Snapshot.Version)
					return
				}
				if env.Snapshot.StructureEpoch < lastEpoch {
					t.Errorf("client %d: structure epoch went backwards: %d -> %d",
						c, lastEpoch, env.Snapshot.StructureEpoch)
					return
				}
				if env.Snapshot.StructureEpoch == 0 {
					t.Errorf("client %d: served learned snapshot with epoch 0", c)
					return
				}
				lastVersion, lastEpoch = env.Snapshot.Version, env.Snapshot.StructureEpoch
				okQueries.Add(1)
			}
		}(c)
	}

	if _, err := co.Serve(); err != nil {
		t.Fatal(err)
	}
	siteWG.Wait()
	close(done)
	clientWG.Wait()

	if okQueries.Load() == 0 {
		t.Error("no live queries served from the learned structure")
	}
	ss := co.StructLearnStats()
	if ss.Relearns == 0 || ss.Epoch == 0 {
		t.Errorf("structure engine never learned: %+v", ss)
	}
	if ss.Swaps == 0 {
		t.Errorf("drift run produced no structure swap: %+v", ss)
	}
	// /statsz carries the coordinator's counters under "struct", with the
	// field names and order the endpoint has always written.
	if st := srv.Stats().Struct; st == nil || *st != ss {
		t.Errorf("Stats().Struct = %+v, want %+v", st, ss)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var statsz struct {
		Struct json.RawMessage `json:"struct"`
	}
	err = json.NewDecoder(resp.Body).Decode(&statsz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`{"frames":%d,"entries":%d,"relearns":%d,"swaps":%d,"epoch":%d}`,
		ss.Frames, ss.Entries, ss.Relearns, ss.Swaps, ss.Epoch)
	if string(statsz.Struct) != want {
		t.Errorf("/statsz struct = %s, want %s", statsz.Struct, want)
	}
	t.Logf("ok=%d cold=%d struct=%+v", okQueries.Load(), coldQueries.Load(), ss)
}
