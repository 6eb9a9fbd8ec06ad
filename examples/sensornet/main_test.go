package main

import (
	"io"
	"os"
	"testing"
)

// sensornetGolden is the example's exact output: the model, the stream and
// every tracker are seeded in main, so the message counts and the errors
// against the truth are deterministic.
const sensornetGolden = `highway sensor tree: 20 sensors x 3 states, 10 sites, 200000 events

algorithm    messages      mean-err-to-truth
exact        8000000       0.00274
baseline     1864911       0.00543
uniform      2092780       0.00342
nonuniform   2091237       0.00361

the approximate trackers answer within a fraction of a percent of the
exact model while sending a fraction of the messages (Lemma 10 tree case)
`

func TestSensornetGolden(t *testing.T) {
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
	if got := <-done; got != sensornetGolden {
		t.Errorf("sensornet output drifted:\n--- got ---\n%s--- want ---\n%s", got, sensornetGolden)
	}
}
