package chaos

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
)

// frameBackend accepts connections and records every decoded frame type it
// receives, reporting them per connection over a channel when the
// connection ends.
type frameBackend struct {
	ln    net.Listener
	got   chan []byte // frame types, one slice per finished connection
	bytes chan int    // raw payload bytes received on the last frame (partial detection)
}

func newFrameBackend(t *testing.T) *frameBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b := &frameBackend{ln: ln, got: make(chan []byte, 16), bytes: make(chan int, 16)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				var types []byte
				tail := 0
				for {
					hdr, payload, err := readFrame(c)
					if err != nil {
						// Count trailing partial bytes, if any (a mid-frame
						// cut leaves a readable header + short payload).
						if n := len(payload); n > 0 {
							tail = n
						}
						break
					}
					types = append(types, hdr[0])
				}
				c.Close()
				b.got <- types
				b.bytes <- tail
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return b
}

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// hello builds a hello-shaped first frame carrying the site id, which keys
// the proxy's deterministic per-connection fault plan.
func hello(site uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], site)
	return b[:]
}

// sendThrough opens one proxied connection, sends a hello then n update
// frames, closes, and returns the backend's view of the connection. A write
// error ends the sending early: it is what a scheduled sever produces, and
// whether the writer gets to see the EPIPE/ECONNRESET before it has written
// everything is kernel timing — the tests assert on what the backend
// received, which is not.
func sendThrough(t *testing.T, p *Proxy, site uint32, n int, b *frameBackend) []byte {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	err = writeFrame(c, 1, hello(site))
	for i := 0; i < n && err == nil; i++ {
		err = writeFrame(c, frameUpdates, []byte{byte(i), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	}
	c.Close()
	return <-b.got
}

func TestTransparentForwarding(t *testing.T) {
	b := newFrameBackend(t)
	p, err := New(Config{}, b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	types := sendThrough(t, p, 0, 10, b)
	<-b.bytes
	if len(types) != 11 {
		t.Fatalf("backend saw %d frames, want 11", len(types))
	}
	if types[0] != 1 {
		t.Fatalf("first frame type %d, want hello", types[0])
	}
}

func TestSeverAtFrameCount(t *testing.T) {
	b := newFrameBackend(t)
	p, err := New(Config{Seed: 7, SeverMinFrames: 5, SeverMaxFrames: 5}, b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	types := sendThrough(t, p, 0, 50, b)
	<-b.bytes
	// The sever fires when the connection's frame counter reaches 5: the
	// hello plus the first three updates get through, the fifth frame dies.
	if len(types) != 4 {
		t.Fatalf("backend saw %d frames, want 4 (sever after frame 5)", len(types))
	}
}

func TestDuplicateUpdateFramesOnly(t *testing.T) {
	b := newFrameBackend(t)
	p, err := New(Config{Seed: 7, DupProb: 1}, b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	types := sendThrough(t, p, 0, 10, b)
	<-b.bytes
	// Every update doubled, the hello untouched.
	if len(types) != 21 {
		t.Fatalf("backend saw %d frames, want 21 (hello + 10 doubled updates)", len(types))
	}
	if types[0] != 1 || types[1] != frameUpdates || types[2] != frameUpdates {
		t.Fatalf("unexpected leading frame types %v", types[:3])
	}
}

func TestHoldReleasesBurstLossless(t *testing.T) {
	b := newFrameBackend(t)
	p, err := New(Config{Seed: 7, HoldEvery: 4, HoldFrames: 3}, b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	types := sendThrough(t, p, 0, 20, b)
	<-b.bytes
	if len(types) != 21 {
		t.Fatalf("backend saw %d frames, want 21 (hold delays, never drops)", len(types))
	}
}

func TestFaultPlanDeterministicPerSeed(t *testing.T) {
	for _, site := range []uint32{0, 3} {
		var lens [2]int
		for run := 0; run < 2; run++ {
			b := newFrameBackend(t)
			p, err := New(Config{Seed: 42, SeverMinFrames: 3, SeverMaxFrames: 30, MidFrameCutProb: 0.5}, b.ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			types := sendThrough(t, p, site, 40, b)
			<-b.bytes
			lens[run] = len(types)
			p.Close()
		}
		if lens[0] != lens[1] {
			t.Fatalf("site %d: fault plan not deterministic: %d vs %d frames delivered", site, lens[0], lens[1])
		}
	}
}

func TestMidFrameCutDeliversPartialFrame(t *testing.T) {
	b := newFrameBackend(t)
	p, err := New(Config{Seed: 1, SeverMinFrames: 5, SeverMaxFrames: 5, MidFrameCutProb: 1}, b.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	types := sendThrough(t, p, 0, 50, b)
	tail := <-b.bytes
	if len(types) != 4 {
		t.Fatalf("backend saw %d whole frames, want 4", len(types))
	}
	if tail == 0 {
		t.Fatalf("mid-frame cut delivered no partial payload; want a truncated frame")
	}
}
