// Package leakcheck is a stdlib-only goroutine-leak check for TestMain: after
// a package's tests pass, every goroutine still running code of that package
// is a leak — some Close that does not mean closed — and fails the run.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the package's tests and then fails the run if goroutines with
// pkg (an import path, e.g. "distbayes/internal/cluster") in their stack
// survive. Call it from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m, "distbayes/internal/cluster") }
func Main(m *testing.M, pkg string) {
	code := m.Run()
	if code == 0 {
		if leaked := survivors(pkg, 2*time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) of %s still running after the tests:\n\n%s\n",
				len(leaked), pkg, strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// survivors returns the stacks of the goroutines (other than the caller's)
// that have pkg in their stack, polling until there are none or settle has
// passed: a goroutine that was told to stop needs a moment to unwind.
// Runtime and testing goroutines never match an import path of the module.
func survivors(pkg string, settle time.Duration) []string {
	deadline := time.Now().Add(settle)
	for {
		leaked := matching(pkg)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func matching(pkg string) []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	// The first block is the calling goroutine: runtime.Stack lists it first.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, pkg) {
			out = append(out, g)
		}
	}
	return out
}
