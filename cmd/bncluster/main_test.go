package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// runMain runs main with args, capturing stdout (status lines from the
// attached query server go to stderr and stay out of the golden).
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() { os.Args, os.Stdout = oldArgs, oldStdout }()
	flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
	os.Args = args
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
	return <-done
}

// TestLocalServeGolden runs the local role with the query server attached
// and pins every deterministic output line: the protocol tallies (exact
// under the sequential configuration) and the probe answered over the
// server's own HTTP endpoint. Runtime and throughput lines are only
// shape-checked. The tallies and the probe follow the sites' per-seed report
// schedule, so a change to the schedule (as when sites began drawing the gap
// to the next report) re-records them; the schedule's distribution is held
// by counter.TestGapMatchesPerIncrementCoin instead.
func TestLocalServeGolden(t *testing.T) {
	events := "9000"
	wantUpdates := "updates     583695"
	wantProbe := "P[alarm_3=1] = 0.137307"
	if testing.Short() {
		events = "3000"
		wantUpdates = "updates     221557"
		wantProbe = "P[alarm_3=1] = 0.139667"
	}
	out := runMain(t, "bncluster",
		"-role", "local", "-net", "alarm", "-sites", "3",
		"-events", events, "-seed", "2",
		"-serve", "127.0.0.1:0", "-probe", "alarm_3=1")

	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("want 6 output lines, got %d:\n%s", len(lines), out)
	}
	for i, want := range []string{
		"events      " + events,
		"frames      " + events[:1] + "003", // events + start/done framing per site
		wantUpdates,
		"", // runtime: shape-checked below
		"", // throughput: shape-checked below
		wantProbe,
	} {
		if want == "" {
			continue
		}
		if lines[i] != want {
			t.Errorf("line %d:\n got %q\nwant %q", i, lines[i], want)
		}
	}
	if ok, _ := regexp.MatchString(`^runtime     \S+$`, lines[3]); !ok {
		t.Errorf("runtime line malformed: %q", lines[3])
	}
	if ok, _ := regexp.MatchString(`^throughput  \d+ events/sec$`, lines[4]); !ok {
		t.Errorf("throughput line malformed: %q", lines[4])
	}
}
