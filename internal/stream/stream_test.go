package stream

import (
	"math"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

func smallModel(t *testing.T) *bn.Model {
	t.Helper()
	m, err := netgen.ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestUniformAssignerCoversSites(t *testing.T) {
	const k = 12
	a := NewUniformAssigner(k, 3)
	counts := make([]int, k)
	const n = 60000
	for i := 0; i < n; i++ {
		s := a.Next()
		if s < 0 || s >= k {
			t.Fatalf("site %d out of range", s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if math.Abs(float64(c)-n/k) > 0.1*n/k {
			t.Errorf("site %d got %d events, want ~%d", s, c, n/k)
		}
	}
}

func TestTrainingStream(t *testing.T) {
	m := smallModel(t)
	tr := NewTraining(m, NewFixedAssigner(3), 9)
	for i := 0; i < 100; i++ {
		site, x := tr.Next()
		if site != 3 {
			t.Fatalf("event %d at site %d, want 3", i, site)
		}
		if !m.Network().ValidAssignment(x) {
			t.Fatalf("invalid assignment %v", x)
		}
	}
	if tr.Count() != 100 {
		t.Errorf("Count = %d, want 100", tr.Count())
	}
}

func TestGenQueriesRespectThreshold(t *testing.T) {
	m := smallModel(t)
	qs, err := GenQueries(m, QueryOptions{Count: 500, MinProb: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 500 {
		t.Fatalf("got %d queries", len(qs))
	}
	for qi, q := range qs {
		if q.Truth < 0.01 {
			t.Errorf("query %d truth %v below threshold", qi, q.Truth)
		}
		// Truth must equal the model's closed-form subset probability.
		if got := m.SubsetProb(q.Set, q.X); math.Abs(got-q.Truth) > 1e-12 {
			t.Errorf("query %d: recorded truth %v, recomputed %v", qi, q.Truth, got)
		}
		// Set must be ancestrally closed.
		in := map[int]bool{}
		for _, v := range q.Set {
			in[v] = true
		}
		for _, v := range q.Set {
			for _, p := range m.Network().Parents(v) {
				if !in[p] {
					t.Errorf("query %d: set not closed (missing parent %d of %d)", qi, p, v)
				}
			}
		}
	}
}

func TestGenQueriesLargeNetworkTerminates(t *testing.T) {
	m, err := netgen.ModelByName("link")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := GenQueries(m, QueryOptions{Count: 100, MinProb: 0.01, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		if q.Truth < 0.01 {
			t.Errorf("truth %v below threshold on link", q.Truth)
		}
	}
}

func TestGenQueriesValidation(t *testing.T) {
	m := smallModel(t)
	if _, err := GenQueries(m, QueryOptions{Count: 0, MinProb: 0.01}); err == nil {
		t.Error("count=0 accepted")
	}
	if _, err := GenQueries(m, QueryOptions{Count: 1, MinProb: 1.5}); err == nil {
		t.Error("minprob=1.5 accepted")
	}
}

func TestGenQueriesDeterministic(t *testing.T) {
	m := smallModel(t)
	a, _ := GenQueries(m, QueryOptions{Count: 50, MinProb: 0.01, Seed: 11})
	b, _ := GenQueries(m, QueryOptions{Count: 50, MinProb: 0.01, Seed: 11})
	for i := range a {
		if a[i].Truth != b[i].Truth {
			t.Fatalf("query %d truth differs", i)
		}
	}
}

func TestGenClassTests(t *testing.T) {
	m := smallModel(t)
	tests, err := GenClassTests(m, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range tests {
		if tc.Target < 0 || tc.Target >= m.Network().Len() {
			t.Fatalf("test %d target out of range", i)
		}
		if !m.Network().ValidAssignment(tc.X) {
			t.Fatalf("test %d invalid assignment", i)
		}
		if tc.Want != tc.X[tc.Target] {
			t.Fatalf("test %d want %d != X[target] %d", i, tc.Want, tc.X[tc.Target])
		}
	}
	if _, err := GenClassTests(m, 0, 1); err == nil {
		t.Error("count=0 accepted")
	}
}
