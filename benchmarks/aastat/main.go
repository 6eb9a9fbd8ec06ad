// Command aastat compares the two sets of runs benchmarks/aa.sh made. For
// every workload and end-to-end metric it prints each set's median and
// quartiles and the A/A delta: how far set B's median is from set A's, as a
// share of A's. It exits 1 if a delta is beyond the metric's bound in
// BENCHMARK.json, if a run reported failed operations, or if one of the three
// count metrics differs at all between the two runs on one seed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
}

// exact are the metrics that are counts of what the program did: they must
// repeat to the last digit for a seed.
var exact = map[string]bool{"msgs_per_event": true, "frames_per_event": true, "err_vs_mle_mean": true}

type run struct {
	Correct bool
	Failed  int64
	Metrics map[string]struct{ Value float64 }
}

func main() {
	bounds := flag.String("bounds", "BENCHMARK.json", "the benchmark's definition")
	dir := flag.String("dir", ".", "directory of <workload>.A.jsonl and <workload>.B.jsonl")
	flag.Parse()

	var bm benchmark
	raw, err := os.ReadFile(*bounds)
	if err == nil {
		err = json.Unmarshal(raw, &bm)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aastat:", err)
		os.Exit(2)
	}

	bad := 0
	fmt.Printf("%-16s %-24s %13s %13s %13s %13s %8s %8s %6s\n",
		"workload", "metric", "A median", "A q1..q3 %", "B median", "B q1..q3 %", "delta %", "bound %", "")
	for _, w := range bm.Workloads {
		a, errA := readRuns(filepath.Join(*dir, w.Name+".A.jsonl"))
		b, errB := readRuns(filepath.Join(*dir, w.Name+".B.jsonl"))
		if errA != nil || errB != nil || len(a) != len(b) || len(a) == 0 {
			fmt.Fprintf(os.Stderr, "aastat: %s: sets unreadable or of different size (%v, %v)\n", w.Name, errA, errB)
			os.Exit(2)
		}
		for i := range a {
			if !a[i].Correct || !b[i].Correct || a[i].Failed+b[i].Failed > 0 {
				fmt.Printf("%-16s run %d reported failed operations\n", w.Name, i+1)
				bad++
			}
		}
		for _, m := range bm.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			ma, mb := median(va), median(vb)
			delta := 100 * (mb - ma) / ma
			verdict := "ok"
			if math.Abs(delta) > 100*m.Bound {
				verdict = "BEYOND"
				bad++
			}
			if exact[m.Name] {
				for i := range va {
					if va[i] != vb[i] {
						verdict = "DIFFERS"
						bad++
						break
					}
				}
			}
			fmt.Printf("%-16s %-24s %13.6g %13.2f %13.6g %13.2f %+8.2f %8.1f %6s\n",
				w.Name, m.Name, ma, spread(va), mb, spread(vb), delta, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d checks failed\n", bad)
		os.Exit(1)
	}
	fmt.Println("all A/A deltas within bounds; every count metric repeats exactly")
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

func values(runs []run, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.Metrics[name].Value
	}
	return v
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the distance between the quartiles as a percentage of the median.
func spread(v []float64) float64 {
	return 100 * (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

// quantile interpolates between order statistics the way Python's
// statistics.quantiles does (exclusive method), which the benchmark contract
// uses for its spreads.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	lo = max(0, min(lo, n-2))
	frac := pos - float64(lo)
	frac = max(0, min(frac, 1))
	return s[lo] + frac*(s[lo+1]-s[lo])
}
