package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distbayes/internal/bif"
	"distbayes/internal/netgen"
)

// runMain invokes main() with the given command line, capturing stdout (see
// cmd/bnmle for the same pattern). Only happy paths are driveable — error
// paths os.Exit.
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

// TestQueryGolden pins the full output lines for the three inference
// methods against the built-in alarm network — all deterministic in the
// fixed seeds (the synthetic networks derive their CPTs from the name).
func TestQueryGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "marginal-ve",
			args: []string{"bnquery", "-net", "alarm", "-query", "alarm_3=1"},
			want: "P[alarm_3=1] = 0.243742   (method=ve)\n",
		},
		{
			name: "conditional-ve",
			args: []string{"bnquery", "-net", "alarm", "-query", "alarm_3=1", "-given", "alarm_0=0,alarm_1=1"},
			want: "P[alarm_3=1 | alarm_0=0,alarm_1=1] = 0.301312   (method=ve)\n",
		},
		{
			name: "marginal-lw",
			args: []string{"bnquery", "-net", "alarm", "-query", "alarm_3=1", "-method", "lw", "-samples", "5000", "-seed", "4"},
			want: "P[alarm_3=1] = 0.2366   (method=lw)\n",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if got := runMain(t, tc.args...); got != tc.want {
				t.Errorf("output = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestQueryBIFModel drives the -bif path end to end: marshal a built-in
// model to BIF, load it back through the flag, and query it.
func TestQueryBIFModel(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	data, err := bif.Marshal("alarm", model)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alarm.bif")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := runMain(t, "bnquery", "-bif", path, "-query", "alarm_3=1")
	want := "P[alarm_3=1] = 0.243742   (method=ve)\n"
	if got != want {
		t.Errorf("BIF-loaded query = %q, want %q", got, want)
	}
}

// TestParseAssignments covers the error cases the golden runs never reach.
func TestParseAssignments(t *testing.T) {
	model, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	net := model.Network()
	if _, err := parseAssignments(net, "nope=1"); err == nil {
		t.Error("unknown variable accepted")
	}
	if _, err := parseAssignments(net, "alarm_3"); err == nil {
		t.Error("missing value accepted")
	}
	if _, err := parseAssignments(net, "alarm_3=99"); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := parseAssignments(net, "alarm_3=x"); err == nil {
		t.Error("non-numeric value accepted")
	}
	// A repeated variable is an error, not a silent overwrite: the answer to
	// -query alarm_3=0,alarm_3=1 would be P[alarm_3=1] under a label showing both.
	for _, dup := range []struct{ in, name string }{
		{"alarm_3=0,alarm_3=1", "alarm_3"},
		{"alarm_0=0,alarm_1=1,alarm_0=0", "alarm_0"},
	} {
		if _, err := parseAssignments(net, dup.in); err == nil || !strings.Contains(err.Error(), dup.name+" ") {
			t.Errorf("parseAssignments(%q) = %v, want an error naming %s", dup.in, err, dup.name)
		}
	}
	got, err := parseAssignments(net, "alarm_3=1,alarm_0=0")
	if err != nil || len(got) != 2 || got[3] != 1 || got[0] != 0 {
		t.Errorf("parseAssignments = %v, %v", got, err)
	}
}
