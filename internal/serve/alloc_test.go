//go:build !race

// The race detector instruments allocations, so this gate only builds — and
// only means anything — in the non-race test pass.

package serve

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

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
// body and a shared snapshot on alarm: the decoders fill the server's pooled
// scratch, so what a query allocates past routing is its body reader, its
// boxed answer and — on subsetprob — the name map and member list it decodes.
func TestQueryHandlerAllocs(t *testing.T) {
	rig := newHandlerRig(t, "alarm")
	bodies := handlerBodies(t, "alarm")
	for _, tc := range []struct {
		endpoint string
		max      float64
	}{
		{"queryprob", 2},
		{"subsetprob", 7},
		{"classify", 2},
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

// TestConnRequestAllocs drives warm queries through Start's loop over TCP
// from a raw client that allocates nothing, so what a request allocates is
// what the loop and the handler allocate: the loop itself allocates nothing,
// so the counts are TestQueryHandlerAllocs's. With http.ReadRequest and
// http.ServeMux behind the loop they were 12/17/12
// (queryprob/subsetprob/classify).
func TestConnRequestAllocs(t *testing.T) {
	_, tr := newNetTracker(t, "alarm", 2000, 0)
	srv := startServer(t, Config{Source: NewTrackerSource(tr), MaxSnapshotAge: time.Hour})
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Minute))
	bodies := handlerBodies(t, "alarm")
	reply := make([]byte, 64<<10)
	for _, tc := range []struct {
		endpoint string
		max      float64
	}{
		{"queryprob", 2},
		{"subsetprob", 7},
		{"classify", 2},
	} {
		body := bodies[tc.endpoint][0]
		req := []byte(fmt.Sprintf("POST /v1/%s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", tc.endpoint, len(body), body))
		// roundTrip sends req and reads one reply, framed by its
		// Content-Length, and returns its status line.
		roundTrip := func() []byte {
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
			for n := 0; ; {
				m, err := c.Read(reply[n:])
				if err != nil {
					t.Fatal(err)
				}
				n += m
				head, _, ok := bytes.Cut(reply[:n], []byte("\r\n\r\n"))
				_, length, _ := bytes.Cut(head, []byte("\r\nContent-Length: "))
				length, _, _ = bytes.Cut(length, []byte("\r\n"))
				l := 0
				for _, d := range length {
					l = 10*l + int(d-'0')
				}
				if ok && n >= len(head)+4+l {
					line, _, _ := bytes.Cut(reply, []byte("\r\n"))
					return line
				}
			}
		}
		if line := roundTrip(); string(line) != "HTTP/1.1 200 OK" {
			t.Fatalf("%s: %q", tc.endpoint, line)
		}
		got := testing.AllocsPerRun(200, func() { roundTrip() })
		t.Logf("%s: %.1f allocs per request", tc.endpoint, got)
		if got > tc.max {
			t.Errorf("%s: %.1f allocs per request, want at most %.0f", tc.endpoint, got, tc.max)
		}
	}
}
