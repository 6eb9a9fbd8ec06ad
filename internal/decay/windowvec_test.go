package decay

import "testing"

// TestWindowVec pins the dense sliding-window vector used by the cluster's
// structure engine: per-block rotation, expiry of out-of-window counts, and
// the incrementally maintained window sum.
func TestWindowVec(t *testing.T) {
	w, err := NewWindowVec(3, 40, 4) // 4 blocks of 10 events
	if err != nil {
		t.Fatal(err)
	}
	if w.BlockEvents() != 10 {
		t.Fatalf("BlockEvents = %d, want 10", w.BlockEvents())
	}

	// Block 0: 5 counts on cell 0.
	w.Add(0, 5)
	if got := w.Advance(10); got != 1 {
		t.Fatalf("Advance(10) rotations = %d, want 1", got)
	}
	// Blocks 1..3: one count on cell 1 each; a single Advance spanning
	// several boundaries must report every rotation.
	w.Add(1, 1)
	if got := w.Advance(25); got != 2 {
		t.Fatalf("Advance(25) rotations = %d, want 2", got)
	}
	w.Add(1, 2)
	if got := w.Clock(); got != 35 {
		t.Fatalf("Clock = %d, want 35", got)
	}
	// Window holds blocks 0-3: cell0=5, cell1=3 (1+2), cell2=0.
	if s := w.Windowed(); s[0] != 5 || s[1] != 3 || s[2] != 0 {
		t.Fatalf("Windowed = %v, want [5 3 0]", s)
	}
	// One more rotation expires block 0 and its 5 counts on cell 0.
	w.Advance(5)
	if s := w.Windowed(); s[0] != 0 || s[1] != 3 {
		t.Fatalf("after expiry Windowed = %v, want [0 3 0]", s)
	}
	// Two more rotations expire the first cell-1 count.
	w.Advance(20)
	if s := w.Windowed(); s[1] != 2 {
		t.Fatalf("after second expiry Windowed = %v, want cell1 = 2", s)
	}

	if _, err := NewWindowVec(0, 40, 4); err == nil {
		t.Error("zero cells accepted")
	}
	if _, err := NewWindowVec(3, 40, 1); err == nil {
		t.Error("single block accepted")
	}
	if _, err := NewWindowVec(3, 2, 4); err == nil {
		t.Error("window smaller than block count accepted")
	}
}
