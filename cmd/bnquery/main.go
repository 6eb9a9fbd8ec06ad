// Command bnquery answers marginal and conditional probability queries on a
// Bayesian network model — either a built-in synthetic network or a model
// loaded from a BIF file (e.g. a genuine bnlearn repository network).
//
//	bnquery -net alarm -query alarm_3=1
//	bnquery -net alarm -query alarm_3=1 -given alarm_0=0,alarm_1=2
//	bnquery -bif mymodel.bif -query Rain=yes -given Grass=wet
//	bnquery -net munin -query munin_7=0 -method gibbs -samples 20000
//
// Methods: ve (exact variable elimination, default), lw (likelihood
// weighting), gibbs (Gibbs sampling). Values may be given by index or, for
// BIF models, by the value's position in the declaration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"distbayes/internal/bif"
	"distbayes/internal/bn"
	"distbayes/internal/netgen"
)

func main() {
	var (
		netName = flag.String("net", "", "built-in network name (see bngen -list)")
		bifPath = flag.String("bif", "", "path to a BIF model file")
		query   = flag.String("query", "", "comma-separated var=value assignments to estimate")
		given   = flag.String("given", "", "comma-separated var=value evidence")
		method  = flag.String("method", "ve", "ve | lw | gibbs")
		samples = flag.Int("samples", 100000, "samples (lw) or sweeps (gibbs)")
		burnIn  = flag.Int("burnin", 1000, "burn-in sweeps (gibbs)")
		seed    = flag.Uint64("seed", 1, "sampling seed")
	)
	flag.Parse()

	model, err := loadModel(*netName, *bifPath)
	if err != nil {
		fatal(err)
	}
	if *query == "" {
		fatal(fmt.Errorf("-query is required, e.g. -query X=1"))
	}
	q, err := parseAssignments(model.Network(), *query)
	if err != nil {
		fatal(err)
	}
	ev := map[int]int{}
	if *given != "" {
		if ev, err = parseAssignments(model.Network(), *given); err != nil {
			fatal(err)
		}
	}

	var p float64
	switch *method {
	case "ve":
		p, err = model.ConditionalProb(q, ev)
	case "lw":
		p, err = model.LikelihoodWeighting(q, ev, *samples, *seed)
	case "gibbs":
		p, err = model.GibbsMarginal(q, ev, *samples, *burnIn, *seed)
	default:
		err = fmt.Errorf("unknown method %q (ve | lw | gibbs)", *method)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("P[%s", *query)
	if *given != "" {
		fmt.Printf(" | %s", *given)
	}
	fmt.Printf("] = %.6g   (method=%s)\n", p, *method)
}

func loadModel(netName, bifPath string) (*bn.Model, error) {
	switch {
	case netName != "" && bifPath != "":
		return nil, fmt.Errorf("use either -net or -bif, not both")
	case netName != "":
		return netgen.ModelByName(netName)
	case bifPath != "":
		data, err := os.ReadFile(bifPath)
		if err != nil {
			return nil, err
		}
		return bif.Unmarshal(data)
	default:
		return nil, fmt.Errorf("one of -net or -bif is required")
	}
}

// parseAssignments resolves "name=value,..." against the network's variable
// names; values are numeric indices, and a variable may appear only once.
func parseAssignments(net *bn.Network, s string) (map[int]int, error) {
	byName := map[string]int{}
	for i := 0; i < net.Len(); i++ {
		byName[net.Var(i).Name] = i
	}
	out := map[int]int{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad assignment %q, want name=value", part)
		}
		v, ok := byName[kv[0]]
		if !ok {
			return nil, fmt.Errorf("unknown variable %q", kv[0])
		}
		val, err := strconv.Atoi(kv[1])
		if err != nil {
			return nil, fmt.Errorf("bad value %q for %s (use the value index)", kv[1], kv[0])
		}
		if val < 0 || val >= net.Card(v) {
			return nil, fmt.Errorf("value %d out of range for %s (card %d)", val, kv[0], net.Card(v))
		}
		if _, dup := out[v]; dup {
			return nil, fmt.Errorf("variable %s assigned twice in %q", kv[0], s)
		}
		out[v] = val
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no assignments in %q", s)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnquery:", err)
	os.Exit(1)
}
