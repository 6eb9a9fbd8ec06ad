//go:build !race

// The race detector instruments allocations, so this gate only builds — and
// only means anything — in the non-race test pass.

package serve

import (
	"net/http"
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

// TestQueryHandlerAllocs drives Handler with a reusable writer, a resettable
// body and a shared snapshot on alarm: what a query allocates past routing is
// its decoded request and nothing per request besides.
func TestQueryHandlerAllocs(t *testing.T) {
	rig := newHandlerRig(t)
	bodies := handlerBodies(t)
	for _, tc := range []struct {
		endpoint string
		max      float64
	}{
		{"queryprob", 4},
		{"subsetprob", 9},
		{"classify", 4},
	} {
		path, body := "/v1/"+tc.endpoint, bodies[tc.endpoint][0]
		if code := rig.do(path, body); code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.endpoint, code, rig.w.buf.Bytes())
		}
		got := testing.AllocsPerRun(200, func() { rig.do(path, body) })
		t.Logf("%s: %.1f allocs per request", tc.endpoint, got)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per request, want at most %.0f", tc.endpoint, got, tc.max)
		}
	}
}
