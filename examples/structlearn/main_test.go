package main

import (
	"io"
	"os"
	"testing"
)

// structlearnGolden is the example's exact output: the hidden tree, the
// sample and both trackers are seeded in main, so the 29/29 recovered edges,
// the two error figures and the message counts are deterministic.
const structlearnGolden = `phase 1 (offline): Chow-Liu on 30000 samples recovered 29/29 edges
phase 2 (online): 200000 events across 25 sites
  mean event-probability error vs hidden truth: tracked=0.0036 exact=0.0035
  communication: tracked=3813825 messages, exact=12000000 (3.1x fewer)
`

func TestStructlearnGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("200k-event example in -short mode")
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
	if got := <-done; got != structlearnGolden {
		t.Errorf("structlearn output drifted:\n--- got ---\n%s--- want ---\n%s", got, structlearnGolden)
	}
}
