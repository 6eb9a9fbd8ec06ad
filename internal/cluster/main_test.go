package cluster

import (
	"testing"

	"distbayes/internal/leakcheck"
)

// TestMain fails the package when a goroutine running cluster code outlives
// the tests: coordinators, relays, sites and launchers must join everything
// they start.
func TestMain(m *testing.M) { leakcheck.Main(m, "distbayes/internal/cluster") }
