//go:build !race

// The race detector instruments allocations, so this gate only builds — and
// only means anything — in the non-race test pass.

package serve

import (
	"runtime"
	"strings"
	"testing"

	"distbayes/internal/netgen"
)

// TestOverlongXAllocatesLittle sends a body-cap-sized "x" array to the two
// decoders that read "x", on a 37-variable network: each must refuse it
// having allocated under 64 KiB, not a slice as long as the body.
func TestOverlongXAllocatesLittle(t *testing.T) {
	nw, err := netgen.ByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int, nw.Len())
	for i := 0; i < nw.Len(); i++ {
		names[nw.Var(i).Name] = i
	}
	values := strings.Repeat("0,", (DefaultMaxBodyBytes-64)/2) + "0"
	full := []byte(`{"x":[` + values + `]}`)
	classify := []byte(`{"target":"alarm_0","x":[` + values + `]}`)
	for name, decode := range map[string]func() error{
		"decodeFullAssignment": func() error { _, err := decodeFullAssignment(nw, names, full); return err },
		"decodeClassify":       func() error { _, _, err := decodeClassify(nw, names, classify); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted %d values on a %d-variable network", name, len(values)/2, nw.Len())
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Errorf("%s allocated %d bytes to refuse an over-long x (%v)", name, d, err)
		}
	}
}
