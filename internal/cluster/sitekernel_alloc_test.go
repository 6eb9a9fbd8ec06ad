//go:build !race

package cluster

import "testing"

// TestWarmSiteEventDoesNotAllocate: a warm site event — sample, count,
// window bookkeeping and the periodic drain — is 0 allocs/op in either
// counter phase. (The race detector's instrumentation allocates; the
// non-race pass carries the gate.)
func TestWarmSiteEventDoesNotAllocate(t *testing.T) {
	for _, sampling := range []bool{false, true} {
		event := siteEventBench(t, "alarm", sampling)
		for i := 0; i < 512; i++ {
			event()
		}
		if allocs := testing.AllocsPerRun(1000, event); allocs != 0 {
			t.Errorf("sampling=%v: %v allocs per warm site event, want 0", sampling, allocs)
		}
	}
}
