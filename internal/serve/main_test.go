package serve

import (
	"testing"

	"distbayes/internal/leakcheck"
)

// TestMain fails the package when a goroutine running serve code outlives the
// tests: a server's accept loop, its handlers, and everything parked on the
// refresh slot or the admission gate must be gone once Shutdown has returned.
func TestMain(m *testing.M) { leakcheck.Main(m, "distbayes/internal/serve") }
