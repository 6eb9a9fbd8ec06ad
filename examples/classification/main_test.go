package main

import (
	"io"
	"os"
	"testing"
)

// classificationGolden is the example's exact output: the model, the stream
// and every tracker are seeded in main, so the error rates and message counts
// are deterministic.
const classificationGolden = `naive-bayes malware triage: 12 features, 20 sites, 100000 training events

algorithm    error-rate  messages
exact        0.2595      2600000
uniform      0.2590      1083439
naivebayes   0.2565      1085699

the tracked classifiers match the exact model's error rate at a fraction
of the communication (Theorem 3)
`

func TestClassificationGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-event example in -short mode")
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
	if got := <-done; got != classificationGolden {
		t.Errorf("classification output drifted:\n--- got ---\n%s--- want ---\n%s", got, classificationGolden)
	}
}
