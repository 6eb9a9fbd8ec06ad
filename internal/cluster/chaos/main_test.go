package chaos

import (
	"testing"

	"distbayes/internal/leakcheck"
)

// TestMain fails the package when a proxy goroutine (or a cluster goroutine
// a test started) outlives the tests.
func TestMain(m *testing.M) { leakcheck.Main(m, "distbayes/internal/cluster") }
