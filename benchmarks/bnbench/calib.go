package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"time"
)

// The box this benchmark runs on is shared. Its two processors are two
// hardware threads of one core of a busy host: a neighbour's burst slows
// every instruction, and every wake-up of an idle thread, for milliseconds to
// minutes at a time, and an uncorrected rate moves by a quarter between two
// runs of the same code. So every timed round of work is bracketed by two
// fixed calibration kernels, and its time is divided by how much slower than
// nominal the kernels ran just before and just after it. What the benchmark
// reports is therefore speed relative to the kernels, in the units their
// nominal speed gives it. The kernels are benchmark code over benchmark data
// and the operating system's loopback, so no change to the repository moves
// them.
//
//   - The memory kernel tallies 8 MB of a 32 MB table of synthetic events into
//     small count tables, parent configuration by parent configuration:
//     sequential reads that miss the second-level cache and scattered
//     increments, like ingest.
//   - The echo kernel sends 300 small requests over a loopback TCP connection
//     to a goroutine that answers each: system calls and thread wake-ups, like
//     a query and like a site talking to its coordinator.
//
// The code under test is a mix of both, and on ten-run samples the geometric
// mean of the two slowdowns left a third to a sixth of the uncorrected spread
// on every phase of every workload; either kernel alone did worse somewhere.

const (
	calibVars   = 32
	calibCard   = 4
	calibTable  = 1 << 17 // events in the table, 256 bytes each
	calibEvents = 1 << 15 // events one kernel run tallies
	echoTrips   = 300
	echoRequest = 256
	echoReply   = 192
	// The kernels' times on an undisturbed box of the kind the bounds were set
	// on (2.1 GHz Xeon, 2 hardware threads). On another machine every timed
	// metric is scaled by one constant factor, which no comparison between
	// two runs on that machine sees.
	memNominal  = 2100 * time.Microsecond
	echoNominal = 2350 * time.Microsecond
)

type calibrator struct {
	table [][calibVars]int
	at    int // next event of the table to tally
	pair  [calibVars][calibCard * calibCard * calibCard]int64
	par   [calibVars][calibCard * calibCard]int64

	ln         net.Listener
	conn       net.Conn
	req, reply []byte

	// runs is how often each kernel runs per calibration, the two kernels
	// taking turns. Their mean times count: a round's time is a sum over the
	// round, bursts included, so the kernels must not dodge the bursts either.
	runs      int
	slowdowns []float64 // every calibration of the run, in order
}

func newCalibrator(runs int) (*calibrator, error) {
	c := &calibrator{
		runs:  runs,
		table: make([][calibVars]int, calibTable),
		req:   make([]byte, echoRequest),
		reply: make([]byte, echoReply),
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.table {
		for v := range c.table[i] {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.table[i][v] = int(x % calibCard)
		}
	}
	var err error
	if c.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("calibration echo server: %w", err)
	}
	go c.serveEcho()
	if c.conn, err = net.Dial("tcp", c.ln.Addr().String()); err != nil {
		c.ln.Close()
		return nil, fmt.Errorf("calibration echo client: %w", err)
	}
	return c, nil
}

// serveEcho answers the one connection the calibrator makes until close
// closes it.
func (c *calibrator) serveEcho() {
	conn, err := c.ln.Accept()
	if err != nil {
		return
	}
	defer conn.Close()
	req, reply := make([]byte, echoRequest), make([]byte, echoReply)
	for {
		if _, err := io.ReadFull(conn, req); err != nil {
			return
		}
		if _, err := conn.Write(reply); err != nil {
			return
		}
	}
}

// close ends the echo goroutine: closing the client connection makes its read
// fail.
func (c *calibrator) close() {
	c.conn.Close()
	c.ln.Close()
}

func (c *calibrator) memKernel() time.Duration {
	tab := c.table[c.at : c.at+calibEvents]
	c.at = (c.at + calibEvents) % len(c.table)
	t0 := time.Now()
	for e := range tab {
		ev := &tab[e]
		for v := 2; v < calibVars; v++ {
			// variable v has the two variables before it as parents
			pidx := ev[v-1]*calibCard + ev[v-2]
			c.pair[v][pidx*calibCard+ev[v]]++
			c.par[v][pidx]++
		}
	}
	return time.Since(t0)
}

func (c *calibrator) echoKernel() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < echoTrips; i++ {
		if _, err := c.conn.Write(c.req); err != nil {
			return 0, fmt.Errorf("calibration echo: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.reply); err != nil {
			return 0, fmt.Errorf("calibration echo: %w", err)
		}
	}
	return time.Since(t0), nil
}

// slowdown runs both kernels and returns the geometric mean of their mean
// times over their nominal times: 1 on an undisturbed box, more under a
// neighbour's load.
func (c *calibrator) slowdown() (float64, error) {
	var mem, echo time.Duration
	for i := 0; i < c.runs; i++ {
		mem += c.memKernel()
		d, err := c.echoKernel()
		if err != nil {
			return 0, err
		}
		echo += d
	}
	n := float64(c.runs)
	s := math.Sqrt(float64(mem) / n / float64(memNominal) * float64(echo) / n / float64(echoNominal))
	c.slowdowns = append(c.slowdowns, s)
	return s, nil
}

// last is the most recent calibration.
func (c *calibrator) last() float64 { return c.slowdowns[len(c.slowdowns)-1] }

// rounds is what n bracketed rounds measured.
type rounds struct {
	wall, cpu []time.Duration
	// slow[r] is the mean of the calibrations before and after round r.
	slow []float64
}

// rounds runs fn n times, calibrating before the first round, between rounds
// and after the last. between, if not nil, runs untimed after each round's
// closing calibration, and the next round then gets an opening calibration of
// its own.
func (c *calibrator) rounds(n int, fn func(r int) error, between func(r int) error) (rounds, error) {
	rt := rounds{wall: make([]time.Duration, n), cpu: make([]time.Duration, n), slow: make([]float64, n)}
	before, err := c.slowdown()
	if err != nil {
		return rt, err
	}
	for r := 0; r < n; r++ {
		cpu0, t0 := cpuTime(), time.Now()
		if err := fn(r); err != nil {
			return rt, err
		}
		rt.wall[r], rt.cpu[r] = time.Since(t0), cpuTime()-cpu0
		after, err := c.slowdown()
		if err != nil {
			return rt, err
		}
		rt.slow[r] = (before + after) / 2
		before = after
		if between == nil {
			continue
		}
		if err := between(r); err != nil {
			return rt, err
		}
		if r+1 < n {
			if before, err = c.slowdown(); err != nil {
				return rt, err
			}
		}
	}
	return rt, nil
}

func seconds(d []time.Duration, slow []float64) []float64 {
	out := make([]float64, len(d))
	for r := range d {
		s := 1.0
		if slow != nil {
			s = slow[r]
		}
		out[r] = d[r].Seconds() / s
	}
	return out
}

// seconds are the rounds' wall times corrected for the slowdown, cpuSeconds
// their processor times corrected likewise, rawSeconds the wall times as the
// clock gave them.
func (rt rounds) seconds() []float64    { return seconds(rt.wall, rt.slow) }
func (rt rounds) cpuSeconds() []float64 { return seconds(rt.cpu, rt.slow) }
func (rt rounds) rawSeconds() []float64 { return seconds(rt.wall, nil) }

// split returns the median corrected time of the odd rounds, which a traced
// run records spans in, and of the even ones, which it does not.
func (rt rounds) split() (odd, even float64) {
	var o, e []float64
	for r, s := range rt.seconds() {
		if r%2 == 1 {
			o = append(o, s)
		} else {
			e = append(e, s)
		}
	}
	return median(o), median(e)
}

// note summarises how disturbed the box was during the run.
func (c *calibrator) note() string {
	lo, hi := c.slowdowns[0], c.slowdowns[0]
	for _, s := range c.slowdowns {
		lo, hi = min(lo, s), max(hi, s)
	}
	return fmt.Sprintf("calibration: %d samples, slowdown median %.3f, least %.3f, most %.3f (1 = memory kernel %v, echo kernel %v)",
		len(c.slowdowns), median(c.slowdowns), lo, hi, memNominal, echoNominal)
}
