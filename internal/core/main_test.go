package core_test

import (
	"testing"

	"distbayes/internal/leakcheck"
)

// TestMain fails the package when a goroutine running cluster code outlives
// the tests: TestMatrix starts coordinators, relays and sites, and each
// must join everything it starts.
func TestMain(m *testing.M) { leakcheck.Main(m, "distbayes/internal/cluster") }
