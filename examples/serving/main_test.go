package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// servingWantLines are the deterministic lines of the example transcript:
// the training summary and every endpoint answer (fixed network, seeds and
// event order make the served estimates exact goldens, which a change to the
// sites' report schedule re-records). The closed-loop
// rate line is timing-dependent and only checked for presence.
var servingWantLines = []string{
	"trained 20000 events across 4 sites on a loopback TCP cluster",
	"health: ok",
	"  joint, all zeros  /v1/queryprob  = 1.4107e-28",
	"  subset            /v1/subsetprob = 0.0284535",
	"  classify alarm_3  /v1/classify   = 3",
	"  marginal alarm_3  /v1/marginal   = 0.243178",
	"server drained and stopped",
}

// TestServingGolden runs the example end to end — cluster, HTTP server,
// closed-loop clients — and pins every deterministic output line.
func TestServingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-event cluster example in -short mode")
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
	got := <-done

	for _, want := range servingWantLines {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("output missing line %q\n--- got ---\n%s", want, got)
		}
	}
	if !strings.Contains(got, "closed loop: 200 queries answered") {
		t.Errorf("output missing closed-loop summary\n--- got ---\n%s", got)
	}
}
