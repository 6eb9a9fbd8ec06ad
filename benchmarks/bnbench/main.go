// Command bnbench is the repository's benchmark: four fixed-work workloads
// over the tracker, the TCP cluster and the HTTP query server, ten end-to-end
// metrics per workload, and with -trace 1 a span trace plus one probe per
// layer. See ../README.md for every metric, bound and size.
//
//	go run ./bnbench -workload tracker-ingest -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_events_per_s", "1/s"},
	{"ingest_cpu_us_per_event", "us"},
	{"msgs_per_event", "count"},
	{"frames_per_event", "count"},
	{"err_vs_mle_mean", "ratio"},
	{"query_qps", "1/s"},
	{"query_p50_us", "us"},
	{"query_p99_us", "us"},
	{"live_heap_mb", "MiB"},
}

// traceMetrics come from the spans of the traced workload itself; the rest of
// the per-layer metrics come from the probes in layers.go.
var traceMetrics = []metricDef{
	{"trace.overhead_pct", "%"},
	{"trace.ingest_layers_pct", "%"},
	{"trace.spans", "count"},
}

const tracePath = "benchmarks/out/trace.json"

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "nominal measuring time; sets the round count (seconds/4, at most 8), never the size of a round")
	trace := flag.Int("trace", 0, "1: record spans, write "+tracePath+" and report the per-layer metrics instead of the end-to-end ones")
	flag.Parse()

	pinRuntime()
	var chosen []spec
	for _, sp := range specs(*seconds) {
		if *workload == "" || *workload == sp.name {
			chosen = append(chosen, sp)
		}
	}
	if len(chosen) == 0 {
		fatalf("unknown workload %q", *workload)
	}
	for i := range chosen {
		if err := runAndReport(&chosen[i], *seed, *trace != 0); err != nil {
			fatalf("%s: %v", chosen[i].name, err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bnbench: "+format+"\n", args...)
	os.Exit(1)
}

// pinRuntime fixes the settings that change what the runtime does, whatever
// the environment says: two processors, the default collector pacing, no
// memory limit and no GODEBUG. GODEBUG is read when the process starts, so
// the process replaces itself once if it is set.
func pinRuntime() {
	if runtime.NumCPU() < 2 {
		fatalf("needs 2 processors, this machine has %d", runtime.NumCPU())
	}
	if os.Getenv("GODEBUG") != "" {
		os.Unsetenv("GODEBUG")
		exe, err := os.Executable()
		if err == nil {
			err = syscall.Exec(exe, os.Args, os.Environ())
		}
		fatalf("restart without GODEBUG: %v", err)
	}
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

func runAndReport(sp *spec, seed uint64, traced bool) error {
	var tr *tracer
	defs := endToEnd
	if traced {
		tr = newTracer()
		defs = append(append([]metricDef(nil), traceMetrics...), layerMetrics...)
	}
	res, err := run(sp, seed, tr)
	if err != nil {
		return err
	}
	if traced {
		if err := tr.writeFile(tracePath); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if err := probeLayers(seed, res); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
	}

	fmt.Printf("workload %s seed %d: %s\n", sp.name, seed, sp.why)
	for _, n := range res.notes {
		fmt.Printf("  %s\n", n)
	}
	if traced {
		fmt.Printf("  %-28s %9s %12s %12s   (%s)\n", "span", "count", "total ms", "self ms", tracePath)
		for _, lt := range res.layers {
			fmt.Printf("  %-28s %9d %12.3f %12.3f\n", lt.name, lt.count, millis(lt.total), millis(lt.self))
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		out.Metrics[d.name] = value{v, d.unit}
		fmt.Printf("  %-40s %18.6f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("  operations attempted %d, failed %d\n", res.attempted, res.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
