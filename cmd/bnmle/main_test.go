package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"distbayes/internal/experiments"
)

// runMain invokes main() with the given command line, capturing stdout.
// Each call resets the global flag set, so several tests can exercise the
// real entry point in one process. Only happy paths are driveable this way
// (error paths os.Exit).
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	oldArgs, oldStdout := os.Args, os.Stdout
	defer func() {
		os.Args, os.Stdout = oldArgs, oldStdout
	}()
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

// TestListMatchesRegistry: -list must print exactly the experiment registry,
// one id per line.
func TestListMatchesRegistry(t *testing.T) {
	out := runMain(t, "bnmle", "-list")
	got := strings.Fields(out)
	want := experiments.IDs()
	if len(got) != len(want) {
		t.Fatalf("-list printed %d ids, want %d:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("-list id %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestTable1Golden runs the cheapest real experiment end to end — the
// Table I network inventory is deterministic — and pins its rendered rows.
func TestTable1Golden(t *testing.T) {
	out := runMain(t, "bnmle", "-exp", "table1", "-nets", "alarm")
	for _, want := range []string{
		"Table I",
		"network", "nodes", "edges", "params",
		"alarm", "37", "46", "509",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestTable1CSV: the -csv emitter must produce a parseable header + row.
func TestTable1CSV(t *testing.T) {
	out := runMain(t, "bnmle", "-exp", "table1", "-nets", "alarm", "-csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var data []string
	for _, l := range lines {
		if strings.HasPrefix(l, "network,") || strings.HasPrefix(l, "alarm,") {
			data = append(data, l)
		}
	}
	if len(data) != 2 {
		t.Fatalf("csv output lacks header+row:\n%s", out)
	}
	if got := strings.Split(data[1], ","); got[0] != "alarm" || got[1] != "37" {
		t.Fatalf("csv row = %q, want alarm,37,...", data[1])
	}
}

// TestSplitHelpers covers the flag-parsing helpers' error cases, which the
// golden runs above never reach.
func TestSplitHelpers(t *testing.T) {
	if got, err := splitList("a, b ,c"); err != nil || len(got) != 3 || got[1] != "b" {
		t.Errorf("splitList = %v, %v", got, err)
	}
	if _, err := splitList("a,,c"); err == nil {
		t.Error("splitList accepted an empty element")
	}
	if got, err := splitInts("1,2,30"); err != nil || len(got) != 3 || got[2] != 30 {
		t.Errorf("splitInts = %v, %v", got, err)
	}
	if _, err := splitInts("1,x"); err == nil {
		t.Error("splitInts accepted a non-integer")
	}
	if got, err := splitFloats("0.5,2"); err != nil || len(got) != 2 || got[0] != 0.5 {
		t.Errorf("splitFloats = %v, %v", got, err)
	}
	if _, err := splitFloats("0.5,y"); err == nil {
		t.Error("splitFloats accepted a non-float")
	}
	if got, err := splitInts(""); err != nil || got != nil {
		t.Errorf("splitInts(\"\") = %v, %v, want nil, nil", got, err)
	}
}

// goldenIDs are the experiments whose output is a pure function of the
// parameters (no wall clock, no TCP interleaving), in the order the golden
// file concatenates them.
var goldenIDs = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
	"table2", "table3", "newalarm", "ablation-nb"}

// TestFiguresGolden compares one `-exp <id>` run per deterministic id against
// testdata/figures_small.golden, recorded with the binary of the commit
// before the figures became projections of shared sweeps (since then only the
// two note lines that cited files the repository never had were edited and
// the blocks of the removed ablation-counter, ablation-decay,
// ablation-sketch and ablation-skew experiments deleted). The
// scale is the smallest at which BASELINE, UNIFORM and NONUNIFORM leave exact
// mode and print three different columns. `-exp table2` and `-exp table3` on
// their own each print both tables.
func TestFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("14 experiments at 20K events: ~15 s")
	}
	want, err := os.ReadFile("testdata/figures_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, id := range goldenIDs {
		got.WriteString(runMain(t, "bnmle", "-exp", id, "-nets", "alarm,hepar2", "-net", "alarm",
			"-sizes", "5000,20000", "-events", "20000", "-sites", "5", "-queries", "50", "-runs", "2", "-seed", "7"))
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs from the golden:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("output has %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}

// TestAllPrintsEveryTableOnce: `-exp all` is one session, so every id prints
// its table under its own header exactly once (Tables II and III used to
// appear twice each).
func TestAllPrintsEveryTableOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment at tiny scale, LINK and MUNIN included")
	}
	out := runMain(t, "bnmle", "-exp", "all", "-nets", "alarm", "-net", "alarm", "-sizes", "500,2000",
		"-events", "2000", "-sites", "5", "-sitelist", "2,3", "-queries", "50", "-runs", "1")
	headers := regexp.MustCompile(`(?m)^== ([a-z0-9-]+):`).FindAllStringSubmatch(out, -1)
	seen := map[string]int{}
	for _, h := range headers {
		seen[h[1]]++
	}
	for _, id := range experiments.IDs() {
		if seen[id] != 1 {
			t.Errorf("-exp all printed the %s header %d times, want 1", id, seen[id])
		}
	}
	if len(headers) != len(experiments.IDs()) {
		t.Errorf("-exp all printed %d tables for %d ids", len(headers), len(experiments.IDs()))
	}
}
