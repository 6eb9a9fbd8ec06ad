package netgen

import "testing"

func TestTableINetworksMatchPublishedCounts(t *testing.T) {
	cases := []struct {
		p Profile
	}{{Alarm}, {HeparII}, {Link}, {Munin}}
	for _, tc := range cases {
		t.Run(tc.p.Name, func(t *testing.T) {
			net, err := Generate(tc.p)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if got := net.Len(); got != tc.p.Nodes {
				t.Errorf("nodes = %d, want %d", got, tc.p.Nodes)
			}
			if got := net.NumEdges(); got != tc.p.Edges {
				t.Errorf("edges = %d, want %d", got, tc.p.Edges)
			}
			if got := net.NumParams(); got != tc.p.Params {
				t.Errorf("params = %d, want %d", got, tc.p.Params)
			}
			if got := net.MaxInDegree(); got > tc.p.MaxInDegree {
				t.Errorf("max in-degree = %d, want <= %d", got, tc.p.MaxInDegree)
			}
			if got := net.MaxCard(); got > tc.p.MaxCard {
				t.Errorf("max card = %d, want <= %d", got, tc.p.MaxCard)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Alarm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Alarm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		va, vb := a.Var(i), b.Var(i)
		if va.Card != vb.Card || len(va.Parents) != len(vb.Parents) {
			t.Fatalf("variable %d differs across runs", i)
		}
		for j := range va.Parents {
			if va.Parents[j] != vb.Parents[j] {
				t.Fatalf("variable %d parents differ", i)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := Profile{Name: "bad", Nodes: 0, Edges: 1, Params: 1}
	if _, err := Generate(bad); err == nil {
		t.Error("invalid profile accepted")
	}
	tooDense := Profile{
		Name: "dense", Nodes: 5, Edges: 100, Params: 10,
		MaxInDegree: 2, Cards: []int{2}, MaxCard: 4, RootFrac: 0.2, Seed: 1,
	}
	if _, err := Generate(tooDense); err == nil {
		t.Error("unreachable edge count accepted")
	}
}

func TestGenCPTs(t *testing.T) {
	net, err := Generate(Alarm)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultCPTOptions()
	cpds, err := GenCPTs(net, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Row validity is enforced by bn.NewCPT; check the floor.
	for i, c := range cpds {
		wantMin := opt.Floor / float64(net.Card(i))
		if got := c.MinProb(); got < wantMin-1e-12 {
			t.Errorf("CPT %d min prob %v below floor %v", i, got, wantMin)
		}
	}
	if _, err := GenCPTs(net, CPTOptions{Alpha: 0, Floor: 0.1, Seed: 1}); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := GenCPTs(net, CPTOptions{Alpha: 1, Floor: 1.5, Seed: 1}); err == nil {
		t.Error("floor=1.5 accepted")
	}
}

func TestNewAlarm(t *testing.T) {
	na, err := NewAlarm()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Generate(Alarm)
	if na.Len() != base.Len() || na.NumEdges() != base.NumEdges() {
		t.Fatalf("NEW-ALARM changed structure: %d nodes %d edges", na.Len(), na.NumEdges())
	}
	inflated := 0
	for i := 0; i < na.Len(); i++ {
		if na.Card(i) == 20 {
			inflated++
		}
	}
	if inflated != 6 {
		t.Errorf("inflated variables = %d, want 6", inflated)
	}
	if na.NumParams() <= base.NumParams() {
		t.Errorf("NEW-ALARM params %d not larger than ALARM %d", na.NumParams(), base.NumParams())
	}
}

func TestStripSinks(t *testing.T) {
	link, err := Generate(Link)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int{724, 624, 324, 24} {
		sub, err := StripSinks(link, target)
		if err != nil {
			t.Fatalf("StripSinks(%d): %v", target, err)
		}
		if sub.Len() != target {
			t.Errorf("stripped to %d nodes, want %d", sub.Len(), target)
		}
		if target < 724 && sub.NumEdges() >= link.NumEdges() {
			t.Errorf("stripping to %d kept %d edges (original %d)", target, sub.NumEdges(), link.NumEdges())
		}
	}
	if _, err := StripSinks(link, 0); err == nil {
		t.Error("target 0 accepted")
	}
	if _, err := StripSinks(link, 99999); err == nil {
		t.Error("oversized target accepted")
	}
}

func TestStripSinksMonotoneEdges(t *testing.T) {
	link, _ := Generate(Link)
	prev := link.NumEdges() + 1
	for _, target := range []int{724, 624, 524, 424, 324, 224, 124, 24} {
		sub, err := StripSinks(link, target)
		if err != nil {
			t.Fatal(err)
		}
		if sub.NumEdges() >= prev {
			t.Errorf("edges at %d nodes = %d, want < %d", target, sub.NumEdges(), prev)
		}
		prev = sub.NumEdges()
	}
}

func TestTreeAndNaiveBayes(t *testing.T) {
	tr, err := Tree(50, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != 49 {
		t.Errorf("tree edges = %d, want 49", tr.NumEdges())
	}
	if got := tr.MaxInDegree(); got != 1 {
		t.Errorf("tree max in-degree = %d, want 1", got)
	}
	if _, err := Tree(0, 2, 1); err == nil {
		t.Error("empty tree accepted")
	}

	nb, err := NaiveBayesNet(4, []int{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(nb.Parents(0)) != 0 {
		t.Errorf("class has parents %v", nb.Parents(0))
	}
	for i := 1; i < nb.Len(); i++ {
		if p := nb.Parents(i); len(p) != 1 || p[0] != 0 {
			t.Errorf("feature %d parents = %v, want [0]", i, p)
		}
	}
	if _, err := NaiveBayesNet(1, []int{2}); err == nil {
		t.Error("degenerate class accepted")
	}
	if _, err := NaiveBayesNet(2, []int{1}); err == nil {
		t.Error("degenerate feature accepted")
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range Names() {
		net, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if net.Len() == 0 {
			t.Errorf("ByName(%q) empty network", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	m, err := ModelByName("alarm")
	if err != nil {
		t.Fatal(err)
	}
	if m.Network().Len() != 37 {
		t.Errorf("alarm model has %d nodes", m.Network().Len())
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Error("unknown model name accepted")
	}
}

func TestGeneratedNetworksSampleable(t *testing.T) {
	// End-to-end sanity: sample from each Table I model; assignments valid.
	for _, name := range []string{"alarm", "hepar2"} {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := m.NewSampler(1)
		x := make([]int, m.Network().Len())
		for i := 0; i < 100; i++ {
			s.Sample(x)
			if !m.Network().ValidAssignment(x) {
				t.Fatalf("%s produced invalid assignment", name)
			}
			if p := m.JointProb(x); p <= 0 {
				t.Fatalf("%s sampled zero-probability assignment", name)
			}
		}
	}
}
