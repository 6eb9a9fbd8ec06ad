package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// clusterGolden is the example's output with the two wall-clock columns
// (runtime, throughput) masked: the per-site streams are seeded, so the
// update counts — all a site ever ships — are deterministic.
const clusterGolden = `live TCP cluster on loopback, ALARM, 50000 events

sites  algorithm    runtime      throughput(ev/s)  updates
2      exact        * 3700000
2      nonuniform   * 1456766
4      exact        * 3700000
4      nonuniform   * 1752451
8      exact        * 3700000
8      nonuniform   * 2076496

the approximate algorithm ships fewer counter updates per event, which
translates into the shorter runtimes / higher throughput of Figs. 7-8
`

// timing matches a row's runtime and throughput columns.
var timing = regexp.MustCompile(`(?m)^(\d+ +\w+ +)\S+ +\d+ +(\d+)$`)

func TestClusterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("six 50k-event loopback clusters in -short mode")
	}
	oldStdout := os.Stdout
	defer func() { os.Stdout = oldStdout }()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	main()
	w.Close()
	if got := timing.ReplaceAllString(<-done, "${1}* ${2}"); got != clusterGolden {
		t.Errorf("cluster output drifted:\n--- got ---\n%s--- want ---\n%s", got, clusterGolden)
	}
}
