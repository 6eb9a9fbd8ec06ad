package distbayes_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/serve"
	"distbayes/internal/stream"
)

// slowSource adds a fixed latency to every snapshot acquisition — the
// shape of a coordinator-backed source under load, where an acquire is an
// RPC plus a rebuild rather than a pointer read. The sleep is blocking
// rather than CPU-bound on purpose: it pins the admitted service time so
// the overload benchmark measures the admission gate, not the scheduler.
type slowSource struct {
	inner serve.ModelSource
	delay time.Duration
}

func (s slowSource) Network() *bn.Network { return s.inner.Network() }

func (s slowSource) AcquireSnapshot() (serve.Snapshot, error) {
	time.Sleep(s.delay)
	return s.inner.AcquireSnapshot()
}

// BenchmarkServeOverload measures the admission gate under offered load
// far beyond capacity: a munin server constrained to 2 concurrent
// requests with a 4-deep wait queue takes 64 closed-loop raw-TCP clients
// — 32× the concurrency the server admits. Snapshots are acquired
// per-request (MaxSnapshotAge < 0) from a source with a fixed 500µs
// acquire latency, so capacity is ~2000 admitted requests/sec and the
// offered load exceeds it many times over. The overload contract says the
// excess must be shed with fast 429s so the latency of what IS admitted
// stays bounded instead of collapsing for everyone; the reported
// p99-admitted-µs (queue wait is capped by the queue depth) and
// queries/sec (admitted throughput, gated by scripts/ledger.sh check) are
// that contract as numbers. Shed responses cost no snapshot work, so
// shed/sec >> queries/sec is the expected shape.
func BenchmarkServeOverload(b *testing.B) {
	model, err := netgen.ModelByName("munin")
	if err != nil {
		b.Fatal(err)
	}
	nw := model.Network()
	const sites = 4
	tr, err := core.NewTracker(nw, core.Config{
		Strategy: core.NonUniform, Eps: 0.1, Sites: sites, Seed: 1, Shards: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	training := stream.NewTraining(model, stream.NewUniformAssigner(sites, 2), 3)
	tr.UpdateEvents(training.NextEvents(nil, 2048))

	srv, err := serve.New(serve.Config{
		Source:         slowSource{serve.NewTrackerSource(tr), 500 * time.Microsecond},
		MaxSnapshotAge: -1,
		MaxConcurrent:  2,
		MaxQueue:       4,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	addr := srv.Addr()

	rng := bn.NewRNG(7)
	var x []int
	reqs := make([][]byte, 16)
	for i := range reqs {
		x = stream.RandomAssignment(nw, rng, x)
		reqs[i] = encodeRequest(addr, "/v1/queryprob", csvAssignment(x))
	}

	clients := 64
	if clients > b.N {
		clients = b.N
	}
	lats := make([][]int64, clients)
	var admitted, shed, rejected atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c < b.N%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReaderSize(conn, 16<<10)
			lat := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if _, err := conn.Write(reqs[(c*7+i)%len(reqs)]); err != nil {
					errs <- err
					return
				}
				code, err := readResponseCode(br)
				if err != nil {
					errs <- err
					return
				}
				switch code {
				case 200:
					admitted.Add(1)
					lat = append(lat, time.Since(t0).Microseconds())
				case 429:
					shed.Add(1)
				case 503:
					rejected.Add(1)
				default:
					errs <- fmt.Errorf("status %d outside the overload contract", code)
					return
				}
			}
			lats[c] = lat
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	if admitted.Load() == 0 {
		b.Fatal("overload run admitted nothing")
	}

	elapsed := b.Elapsed().Seconds()
	all := make([]int64, 0, admitted.Load())
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b.ReportMetric(float64(len(all))/elapsed, "queries/sec")
	b.ReportMetric(float64(shed.Load()+rejected.Load())/elapsed, "shed/sec")
	b.ReportMetric(float64(all[len(all)/2]), "p50-admitted-µs")
	b.ReportMetric(float64(all[len(all)*99/100]), "p99-admitted-µs")

	shutdownServer(b, srv)
}

// readResponseCode consumes one HTTP/1.1 response off the keep-alive
// stream (status line, headers with the Content-Length the server always
// sets, then the body, discarded) and returns its status code: the overload
// benchmark counts 429/503 as data.
func readResponseCode(br *bufio.Reader) (int, error) {
	status, err := br.ReadString('\n')
	if err != nil {
		return 0, err
	}
	parts := strings.SplitN(status, " ", 3)
	if len(parts) < 3 {
		return 0, fmt.Errorf("malformed status line %q", strings.TrimSpace(status))
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", strings.TrimSpace(status))
	}
	length := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return 0, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			if length, err = strconv.Atoi(v); err != nil {
				return 0, err
			}
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("response without Content-Length")
	}
	if _, err := io.CopyN(io.Discard, br, int64(length)); err != nil {
		return 0, err
	}
	return code, nil
}

// encodeRequest renders one keep-alive HTTP/1.1 POST as raw bytes.
func encodeRequest(host, path, body string) []byte {
	return []byte(fmt.Sprintf(
		"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, host, len(body), body))
}

// csvAssignment renders a full assignment as the CSV body of /v1/queryprob.
func csvAssignment(x []int) string {
	var sb strings.Builder
	sb.Grow(2 * len(x))
	for i, v := range x {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	return sb.String()
}

func shutdownServer(b *testing.B, srv *serve.Server) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
}
