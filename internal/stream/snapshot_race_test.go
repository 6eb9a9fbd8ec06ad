package stream

import (
	"math"
	"sync"
	"testing"

	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// TestSnapshotQueriesDuringDriveParallel runs the full parallel ingestion
// engine (one goroutine per site) while several reader goroutines hammer the
// snapshot-served query paths (QueryProb, Classify, EstimatedModel). Under
// -race this proves the per-stripe version protocol and copy-on-write
// snapshot publication are clean against live multi-stripe ingestion; the
// assertions check every mid-flight answer is a valid probability.
func TestSnapshotQueriesDuringDriveParallel(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	const sites, perSite = 4, 3000
	tr, err := core.NewTracker(model.Network(), core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 1, Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	streams := NewSiteTrainings(model, sites, 77)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			n := model.Network().Len()
			x := make([]int, n)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := tr.QueryProb(x)
				if math.IsNaN(p) || p < 0 || p > 1.0000001 {
					t.Errorf("mid-ingest QueryProb = %v", p)
					return
				}
				_ = tr.Classify((g+i)%n, x)
				if i%10 == 0 {
					if _, err := tr.EstimatedModel(); err != nil {
						t.Errorf("mid-ingest EstimatedModel: %v", err)
						return
					}
				}
			}
		}(g)
	}

	total := DriveParallel(tr, streams, perSite, 256)
	close(stop)
	readers.Wait()

	if total != sites*perSite || tr.Events() != sites*perSite {
		t.Fatalf("ingested %d (tracker %d), want %d", total, tr.Events(), sites*perSite)
	}
}
