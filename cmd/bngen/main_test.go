package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"distbayes/internal/bif"
	"distbayes/internal/netgen"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("bngen %v: %v", args, err)
	}
	return out.String()
}

func TestList(t *testing.T) {
	want := "alarm\nhepar2\nlink\nmunin\nnew-alarm\n"
	if got := runOK(t, "-list"); got != want {
		t.Errorf("-list = %q, want %q", got, want)
	}
}

// TestSummary pins the Table I row of the alarm network.
func TestSummary(t *testing.T) {
	want := "network      alarm\n" +
		"nodes        37\n" +
		"edges        46\n" +
		"parameters   509\n" +
		"cpt cells    700\n" +
		"max indegree 2\n" +
		"max card     7\n"
	if got := runOK(t, "-net", "alarm"); got != want {
		t.Errorf("summary =\n%s\nwant\n%s", got, want)
	}
}

// TestSampleStreamPinned pins the forward sampler's stream at the CLI: the
// compiled sampler must keep drawing what the historical per-variable loop
// drew for a seed.
func TestSampleStreamPinned(t *testing.T) {
	want := "1,3,5,4,0,2,0,1,0,0,2,0,4,0,1,1,0,1,0,1,0,1,1,0,6,0,4,0,0,1,4,1,0,1,2,1,0\n" +
		"2,4,5,3,0,0,1,1,3,0,2,1,3,0,1,0,0,1,0,1,0,4,0,0,5,2,4,0,0,0,4,1,0,1,1,1,0\n" +
		"0,1,5,3,1,0,1,0,3,1,2,0,3,2,1,0,0,1,0,1,1,0,0,0,2,4,1,0,0,2,1,0,0,1,0,0,0\n" +
		"2,4,5,4,0,2,1,1,3,0,0,0,3,1,1,0,0,1,0,1,1,0,1,0,4,0,4,0,0,1,4,0,1,1,2,1,2\n" +
		"1,4,5,3,0,0,1,1,3,0,2,1,3,0,1,0,0,1,0,1,0,3,0,0,4,2,4,0,0,0,1,1,0,1,1,1,0\n"
	if got := runOK(t, "-net", "alarm", "-sample", "5", "-seed", "1"); got != want {
		t.Errorf("-sample 5 -seed 1 =\n%s\nwant\n%s", got, want)
	}
}

// TestBIFRoundTrip: the document `bngen -bif` writes loads back (the
// `bnquery -bif` path) into a model that answers like the built-in one
// (`bnquery -net`).
func TestBIFRoundTrip(t *testing.T) {
	loaded, err := bif.Unmarshal([]byte(runOK(t, "-net", "alarm", "-bif")))
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	query, given := map[int]int{3: 1}, map[int]int{0: 0} // alarm_3=1 | alarm_0=0
	want, err := builtin.ConditionalProb(query, given)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.ConditionalProb(query, given)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || fmt.Sprintf("%.6g", got) != "0.307658" {
		t.Errorf("P[alarm_3=1 | alarm_0=0]: BIF-loaded %v, built-in %v, want 0.307658", got, want)
	}
}

func TestSample(t *testing.T) {
	lines := strings.Split(strings.TrimSuffix(runOK(t, "-net", "alarm", "-sample", "5"), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("-sample 5 printed %d lines", len(lines))
	}
	for _, l := range lines {
		if n := len(strings.Split(l, ",")); n != 37 {
			t.Errorf("event %q has %d values, want 37", l, n)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-net", "alarm", "-sample", "-3"}, &out); err == nil || out.Len() != 0 {
		t.Errorf("-sample -3: err = %v, output %q; want an error and no output", err, out.String())
	}
}
