package bn

import (
	"math"
	"testing"
	"testing/quick"
)

// chain3 builds A -> B -> C with the given cardinalities.
func chain3(t *testing.T, ca, cb, cc int) *Network {
	t.Helper()
	nw, err := NewNetwork([]Variable{
		{Name: "A", Card: ca},
		{Name: "B", Card: cb, Parents: []int{0}},
		{Name: "C", Card: cc, Parents: []int{1}},
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return nw
}

func TestNewNetworkValidation(t *testing.T) {
	cases := []struct {
		name string
		vars []Variable
	}{
		{"empty", nil},
		{"zero card", []Variable{{Name: "A", Card: 0}}},
		{"negative card", []Variable{{Name: "A", Card: -2}}},
		{"parent out of range", []Variable{{Name: "A", Card: 2, Parents: []int{5}}}},
		{"negative parent", []Variable{{Name: "A", Card: 2, Parents: []int{-1}}}},
		{"self parent", []Variable{{Name: "A", Card: 2, Parents: []int{0}}}},
		{"duplicate parent", []Variable{
			{Name: "A", Card: 2},
			{Name: "B", Card: 2, Parents: []int{0, 0}},
		}},
		{"two cycle", []Variable{
			{Name: "A", Card: 2, Parents: []int{1}},
			{Name: "B", Card: 2, Parents: []int{0}},
		}},
		{"three cycle", []Variable{
			{Name: "A", Card: 2, Parents: []int{2}},
			{Name: "B", Card: 2, Parents: []int{0}},
			{Name: "C", Card: 2, Parents: []int{1}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewNetwork(tc.vars); err == nil {
				t.Fatalf("NewNetwork(%v) succeeded, want error", tc.vars)
			}
		})
	}
}

func TestNetworkDerivedQuantities(t *testing.T) {
	// Collider: A -> C <- B, plus leaf D with parent C.
	nw, err := NewNetwork([]Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 3},
		{Name: "C", Card: 4, Parents: []int{0, 1}},
		{Name: "D", Card: 5, Parents: []int{2}},
	})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if got := nw.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	if got := nw.NumEdges(); got != 3 {
		t.Errorf("NumEdges = %d, want 3", got)
	}
	// params: A:(2-1)*1 + B:(3-1)*1 + C:(4-1)*6 + D:(5-1)*4 = 1+2+18+16 = 37
	if got := nw.NumParams(); got != 37 {
		t.Errorf("NumParams = %d, want 37", got)
	}
	// cells: 2 + 3 + 24 + 20 = 49
	if got := nw.NumCells(); got != 49 {
		t.Errorf("NumCells = %d, want 49", got)
	}
	if got := nw.ParentCard(2); got != 6 {
		t.Errorf("ParentCard(C) = %d, want 6", got)
	}
	if got := nw.ParentCard(0); got != 1 {
		t.Errorf("ParentCard(A) = %d, want 1", got)
	}
	if got := nw.MaxInDegree(); got != 2 {
		t.Errorf("MaxInDegree = %d, want 2", got)
	}
	if got := nw.MaxCard(); got != 5 {
		t.Errorf("MaxCard = %d, want 5", got)
	}
	if ch := nw.Children(2); len(ch) != 1 || ch[0] != 3 {
		t.Errorf("Children(C) = %v, want [3]", ch)
	}
}

func TestTopoOrderProperty(t *testing.T) {
	nw := MustNetwork([]Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 2, Parents: []int{0}},
		{Name: "C", Card: 2, Parents: []int{0, 1}},
		{Name: "D", Card: 2, Parents: []int{2}},
		{Name: "E", Card: 2, Parents: []int{0, 3}},
	})
	pos := make(map[int]int)
	for at, v := range nw.order {
		pos[v] = at
	}
	if len(pos) != nw.Len() {
		t.Fatalf("topo order has %d entries, want %d", len(pos), nw.Len())
	}
	for i := 0; i < nw.Len(); i++ {
		for _, p := range nw.Parents(i) {
			if pos[p] >= pos[i] {
				t.Errorf("parent %d at position %d not before child %d at %d", p, pos[p], i, pos[i])
			}
		}
	}
}

func TestParentIndexRoundTrip(t *testing.T) {
	nw := MustNetwork([]Variable{
		{Name: "A", Card: 3},
		{Name: "B", Card: 4},
		{Name: "C", Card: 2, Parents: []int{0, 1}},
	})
	seen := make(map[int]bool)
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			x := []int{a, b, 0}
			idx := nw.ParentIndex(2, x)
			if idx < 0 || idx >= nw.ParentCard(2) {
				t.Fatalf("ParentIndex(%v) = %d out of range", x, idx)
			}
			if seen[idx] {
				t.Fatalf("ParentIndex collision at %v -> %d", x, idx)
			}
			seen[idx] = true
			vals := nw.ParentValues(2, idx)
			if vals[0] != a || vals[1] != b {
				t.Errorf("ParentValues(%d) = %v, want [%d %d]", idx, vals, a, b)
			}
			if got := nw.ParentIndexOf(2, vals); got != idx {
				t.Errorf("ParentIndexOf(%v) = %d, want %d", vals, got, idx)
			}
		}
	}
	if len(seen) != 12 {
		t.Errorf("saw %d distinct parent indices, want 12", len(seen))
	}
}

// TestParentIndexBijectionQuick property-tests the index <-> values bijection
// on randomly shaped families.
func TestParentIndexBijectionQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		np := 1 + rng.Intn(4)
		vars := make([]Variable, np+1)
		for i := 0; i < np; i++ {
			vars[i] = Variable{Name: "P", Card: 1 + rng.Intn(5)}
		}
		parents := make([]int, np)
		for i := range parents {
			parents[i] = i
		}
		vars[np] = Variable{Name: "X", Card: 2, Parents: parents}
		nw, err := NewNetwork(vars)
		if err != nil {
			return false
		}
		for trial := 0; trial < 16; trial++ {
			idx := rng.Intn(nw.ParentCard(np))
			vals := nw.ParentValues(np, idx)
			for p, v := range vals {
				if v < 0 || v >= nw.Card(parents[p]) {
					return false
				}
			}
			if nw.ParentIndexOf(np, vals) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidAssignment(t *testing.T) {
	nw := chain3(t, 2, 3, 4)
	cases := []struct {
		x    []int
		want bool
	}{
		{[]int{0, 0, 0}, true},
		{[]int{1, 2, 3}, true},
		{[]int{2, 0, 0}, false},
		{[]int{0, 3, 0}, false},
		{[]int{0, 0, -1}, false},
		{[]int{0, 0}, false},
		{[]int{0, 0, 0, 0}, false},
	}
	for _, tc := range cases {
		if got := nw.ValidAssignment(tc.x); got != tc.want {
			t.Errorf("ValidAssignment(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestAncestralClosure(t *testing.T) {
	// A -> B -> D, C -> D, E isolated.
	nw := MustNetwork([]Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 2, Parents: []int{0}},
		{Name: "C", Card: 2},
		{Name: "D", Card: 2, Parents: []int{1, 2}},
		{Name: "E", Card: 2},
	})
	got := nw.AncestralClosure([]int{3})
	want := map[int]bool{0: true, 1: true, 2: true, 3: true}
	if len(got) != len(want) {
		t.Fatalf("closure(D) = %v, want vars %v", got, want)
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("closure(D) contains unexpected %d", v)
		}
	}
	// Closure must be ancestrally closed and in topological order.
	pos := map[int]int{}
	for at, v := range got {
		pos[v] = at
	}
	for _, v := range got {
		for _, p := range nw.Parents(v) {
			at, ok := pos[p]
			if !ok {
				t.Errorf("closure missing parent %d of %d", p, v)
			} else if at >= pos[v] {
				t.Errorf("closure not topo-ordered: parent %d after child %d", p, v)
			}
		}
	}
	if single := nw.AncestralClosure([]int{4}); len(single) != 1 || single[0] != 4 {
		t.Errorf("closure(E) = %v, want [4]", single)
	}
}

func TestNetworkImmutableFromCaller(t *testing.T) {
	parents := []int{0}
	vars := []Variable{
		{Name: "A", Card: 2},
		{Name: "B", Card: 2, Parents: parents},
	}
	nw := MustNetwork(vars)
	parents[0] = 99 // mutate the caller's slice; network must be unaffected
	if got := nw.Parents(1)[0]; got != 0 {
		t.Errorf("network parent mutated through caller slice: got %d", got)
	}
}

func TestNumParamsMatchesManualSum(t *testing.T) {
	nw := chain3(t, 2, 3, 4)
	want := (2-1)*1 + (3-1)*2 + (4-1)*3
	if got := nw.NumParams(); got != want {
		t.Errorf("NumParams = %d, want %d", got, want)
	}
}

func TestMustNetworkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNetwork on invalid input did not panic")
		}
	}()
	MustNetwork([]Variable{{Name: "A", Card: 0}})
}

func TestErrCycleIdentity(t *testing.T) {
	_, err := NewNetwork([]Variable{
		{Name: "A", Card: 2, Parents: []int{1}},
		{Name: "B", Card: 2, Parents: []int{0}},
	})
	if err != ErrCycle {
		t.Errorf("cycle error = %v, want ErrCycle", err)
	}
}

func TestBigParentCardNoOverflowSmallCase(t *testing.T) {
	// 10 binary parents -> K = 1024.
	vars := make([]Variable, 11)
	parents := make([]int, 10)
	for i := 0; i < 10; i++ {
		vars[i] = Variable{Name: "P", Card: 2}
		parents[i] = i
	}
	vars[10] = Variable{Name: "X", Card: 2, Parents: parents}
	nw := MustNetwork(vars)
	if got := nw.ParentCard(10); got != 1024 {
		t.Errorf("ParentCard = %d, want 1024", got)
	}
	x := make([]int, 11)
	for i := range parents {
		x[i] = 1
	}
	if got := nw.ParentIndex(10, x); got != 1023 {
		t.Errorf("ParentIndex(all ones) = %d, want 1023", got)
	}
}

func TestCPTValidation(t *testing.T) {
	if _, err := NewCPT(2, 1, []float64{0.5, 0.6}); err == nil {
		t.Error("unnormalized row accepted")
	}
	if _, err := NewCPT(2, 1, []float64{-0.1, 1.1}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewCPT(2, 1, []float64{math.NaN(), 1}); err == nil {
		t.Error("NaN probability accepted")
	}
	if _, err := NewCPT(2, 2, []float64{1, 0}); err == nil {
		t.Error("short table accepted")
	}
	if _, err := NewCPT(0, 1, nil); err == nil {
		t.Error("zero cardinality accepted")
	}
	c, err := NewCPT(2, 2, []float64{0.25, 0.75, 1, 0})
	if err != nil {
		t.Fatalf("valid CPT rejected: %v", err)
	}
	if got := c.P(1, 0); got != 0.75 {
		t.Errorf("P(1|0) = %v, want 0.75", got)
	}
	if got := c.P(0, 1); got != 1 {
		t.Errorf("P(0|1) = %v, want 1", got)
	}
	if got := c.MinProb(); got != 0 {
		t.Errorf("MinProb = %v, want 0", got)
	}
}
