package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestSurvivors parks a goroutine in this package, sees it reported, releases
// it, and sees the report clear.
func TestSurvivors(t *testing.T) {
	const pkg = "distbayes/internal/leakcheck"
	if got := survivors(pkg, 0); len(got) != 0 {
		t.Fatalf("clean start reports %d survivors:\n%s", len(got), strings.Join(got, "\n\n"))
	}
	release, parked := make(chan struct{}), make(chan struct{})
	go park(release, parked)
	<-parked
	got := survivors(pkg, 50*time.Millisecond)
	if len(got) != 1 || !strings.Contains(got[0], "leakcheck.park") {
		t.Fatalf("parked goroutine not reported: %q", got)
	}
	close(release)
	if got := survivors(pkg, 2*time.Second); len(got) != 0 {
		t.Fatalf("released goroutine still reported:\n%s", strings.Join(got, "\n\n"))
	}
}

func park(release <-chan struct{}, parked chan<- struct{}) {
	close(parked)
	<-release
}
