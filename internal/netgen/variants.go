package netgen

import (
	"fmt"
	"strings"

	"distbayes/internal/bn"
)

// NewAlarm reproduces the paper's semi-synthetic NEW-ALARM network
// (Section VI, "Communication Cost of UNIFORM vs. NONUNIFORM"): the ALARM
// structure is kept but the domains of 6 randomly chosen variables are
// inflated to 20 values, creating the cardinality imbalance that NONUNIFORM
// exploits.
func NewAlarm() (*bn.Network, error) {
	net, err := Generate(Alarm)
	if err != nil {
		return nil, err
	}
	rng := bn.NewRNG(0x9EA1)
	vars := make([]bn.Variable, net.Len())
	for i := range vars {
		vars[i] = net.Var(i)
	}
	inflated := 0
	for guard := 0; inflated < 6 && guard < 1000; guard++ {
		i := rng.Intn(len(vars))
		if vars[i].Card >= 20 {
			continue
		}
		vars[i].Card = 20
		inflated++
	}
	if inflated < 6 {
		return nil, fmt.Errorf("netgen: could not inflate 6 variables")
	}
	out, err := bn.NewNetwork(vars)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StripSinks removes sink nodes (out-degree zero) one at a time — the
// procedure used for the Figure 9 scaling study — until exactly target
// variables remain, and returns the renumbered network. Every DAG has a
// sink, so this always succeeds for 1 <= target <= n.
func StripSinks(net *bn.Network, target int) (*bn.Network, error) {
	n := net.Len()
	if target < 1 || target > n {
		return nil, fmt.Errorf("netgen: strip target %d out of range [1,%d]", target, n)
	}
	alive := make([]bool, n)
	childCount := make([]int, n)
	for i := 0; i < n; i++ {
		alive[i] = true
		childCount[i] = len(net.Children(i))
	}
	remaining := n
	for remaining > target {
		// Remove the highest-indexed current sink (deterministic order, as
		// the paper removes them "one after another").
		removed := -1
		for i := n - 1; i >= 0; i-- {
			if alive[i] && childCount[i] == 0 {
				removed = i
				break
			}
		}
		if removed < 0 {
			return nil, fmt.Errorf("netgen: no sink found (graph corrupt)")
		}
		alive[removed] = false
		for _, p := range net.Parents(removed) {
			childCount[p]--
		}
		remaining--
	}

	remap := make([]int, n)
	for i := range remap {
		remap[i] = -1
	}
	var vars []bn.Variable
	for i := 0; i < n; i++ {
		if !alive[i] {
			continue
		}
		remap[i] = len(vars)
		v := net.Var(i)
		ps := make([]int, len(v.Parents))
		for j, p := range v.Parents {
			// Parents are never removed before their children, so remap is
			// already set for them.
			ps[j] = remap[p]
		}
		vars = append(vars, bn.Variable{Name: v.Name, Card: v.Card, Parents: ps})
	}
	return bn.NewNetwork(vars)
}

// Tree generates a random tree-structured network (Section V, Lemma 10):
// node 0 is the root and node i attaches to a uniform earlier node.
func Tree(n, card int, seed uint64) (*bn.Network, error) {
	if n < 1 || card < 2 {
		return nil, fmt.Errorf("netgen: invalid tree shape n=%d card=%d", n, card)
	}
	rng := bn.NewRNG(seed)
	vars := make([]bn.Variable, n)
	vars[0] = bn.Variable{Name: "t_0", Card: card}
	for i := 1; i < n; i++ {
		vars[i] = bn.Variable{Name: fmt.Sprintf("t_%d", i), Card: card, Parents: []int{rng.Intn(i)}}
	}
	return bn.NewNetwork(vars)
}

// NaiveBayesNet generates the two-layer Naïve-Bayes network of Section V:
// variable 0 is the class with classCard values; feature i has featureCards[i]
// values and the class as its only parent.
func NaiveBayesNet(classCard int, featureCards []int) (*bn.Network, error) {
	if classCard < 2 {
		return nil, fmt.Errorf("netgen: class cardinality %d < 2", classCard)
	}
	vars := make([]bn.Variable, 1+len(featureCards))
	vars[0] = bn.Variable{Name: "class", Card: classCard}
	for i, c := range featureCards {
		if c < 2 {
			return nil, fmt.Errorf("netgen: feature %d cardinality %d < 2", i, c)
		}
		vars[1+i] = bn.Variable{Name: fmt.Sprintf("f_%d", i), Card: c, Parents: []int{0}}
	}
	return bn.NewNetwork(vars)
}

// Names lists the registry of Table I network names.
func Names() []string { return []string{"alarm", "hepar2", "link", "munin", "new-alarm"} }

// ByName returns the network for a Table I name (see Names), or a
// parameterized random tree for a "tree:<n>:<card>:<seed>" name. Tree names
// are what the drift runs use: two trees of the same n and card (any
// seeds) have identical variable names and cardinalities and differ only in
// structure, and the name is enough for both ends of a cluster to
// regenerate the network deterministically — structure never travels.
func ByName(name string) (*bn.Network, error) {
	if rest, ok := strings.CutPrefix(name, "tree:"); ok {
		var n, card int
		var seed uint64
		if _, err := fmt.Sscanf(rest, "%d:%d:%d", &n, &card, &seed); err != nil {
			return nil, fmt.Errorf("netgen: bad tree name %q, want tree:<n>:<card>:<seed>", name)
		}
		return Tree(n, card, seed)
	}
	switch name {
	case "alarm":
		return Generate(Alarm)
	case "hepar2":
		return Generate(HeparII)
	case "link":
		return Generate(Link)
	case "munin":
		return Generate(Munin)
	case "new-alarm":
		return NewAlarm()
	default:
		return nil, fmt.Errorf("netgen: unknown network %q (known: %v, tree:<n>:<card>:<seed>)", name, Names())
	}
}

// ModelByName returns the network with default ground-truth CPTs.
func ModelByName(name string) (*bn.Model, error) {
	net, err := ByName(name)
	if err != nil {
		return nil, err
	}
	cpds, err := GenCPTs(net, DefaultCPTOptions())
	if err != nil {
		return nil, err
	}
	return bn.NewModel(net, cpds)
}
