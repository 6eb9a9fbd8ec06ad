// Command bnmle runs the paper-reproduction experiments of the distbayes
// library and prints the rows/series of the corresponding tables and figures.
//
// Usage:
//
//	bnmle -list
//	bnmle -exp fig6 -nets alarm,hepar2 -sizes 5000,50000,500000
//	bnmle -exp table2 -events 50000 -sites 30 -eps 0.1
//	bnmle -exp fig7 -sitelist 2,4,6,8,10 -events 500000
//	bnmle -exp all -csv
//
// Default parameters are scaled down from the paper's largest runs (which go
// to 5M events); pass -sizes/-events at full scale to match the published
// setup exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"distbayes/internal/experiments"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		nets    = flag.String("nets", "", "comma-separated network names (default: alarm,hepar2,link,munin)")
		network = flag.String("net", "", "single network of fig10 and batching (default hepar2)")
		sizes   = flag.String("sizes", "", "comma-separated training checkpoints (default 5000,50000)")
		events  = flag.Int("events", 0, "stream length for fixed-size experiments (default 50000)")
		eps     = flag.Float64("eps", 0, "approximation budget epsilon (default 0.1)")
		epsList = flag.String("epslist", "", "comma-separated epsilon sweep for fig10")
		sites   = flag.Int("sites", 0, "number of sites k (default 30)")
		siteLst = flag.String("sitelist", "", "comma-separated site counts for fig7/fig8")
		queries = flag.Int("queries", 0, "probability test events per evaluation (default 1000)")
		runs    = flag.Int("runs", 0, "independent runs, median reported (default 3)")
		seed    = flag.Uint64("seed", 0, "random seed (default 1)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned text")
		chart   = flag.Bool("chart", false, "also render an ASCII chart of each table's numeric series")
		logY    = flag.Bool("logy", true, "chart: log10 y-axis (the scale the paper's communication figures use)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "bnmle: -exp is required (or -list); e.g. -exp fig6")
		flag.Usage()
		os.Exit(2)
	}

	p := experiments.Params{
		Network: *network,
		Events:  *events,
		Eps:     *eps,
		Sites:   *sites,
		Queries: *queries,
		Runs:    *runs,
		Seed:    *seed,
	}
	var err error
	if p.Networks, err = splitList(*nets); err != nil {
		fatal(err)
	}
	if p.Sizes, err = splitInts(*sizes); err != nil {
		fatal(err)
	}
	if p.SiteList, err = splitInts(*siteLst); err != nil {
		fatal(err)
	}
	if p.EpsList, err = splitFloats(*epsList); err != nil {
		fatal(err)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	// One session for every requested id: sweeps that several figures read
	// (Figs 1-6, Figs 7/8, Tables II/III) are computed once.
	session := experiments.NewSession(p, ids...)
	for _, id := range ids {
		tabs, err := session.Run(id)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		for _, tab := range tabs {
			if *csv {
				err = tab.CSV(os.Stdout)
			} else {
				err = tab.Render(os.Stdout)
			}
			if err != nil {
				fatal(err)
			}
			if *chart {
				if cols := experiments.NumericColumns(tab); len(cols) >= 2 {
					c := experiments.DefaultChart(*logY)
					if err := c.Render(os.Stdout, tab, cols[0], cols[1:]); err != nil {
						fatal(err)
					}
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bnmle:", err)
	os.Exit(1)
}

func splitList(s string) ([]string, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("empty element in list %q", s)
		}
		out = append(out, p)
	}
	return out, nil
}

func splitInts(s string) ([]int, error) {
	names, err := splitList(s)
	if err != nil || names == nil {
		return nil, err
	}
	out := make([]int, len(names))
	for i, n := range names {
		out[i], err = strconv.Atoi(n)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", n)
		}
	}
	return out, nil
}

func splitFloats(s string) ([]float64, error) {
	names, err := splitList(s)
	if err != nil || names == nil {
		return nil, err
	}
	out := make([]float64, len(names))
	for i, n := range names {
		out[i], err = strconv.ParseFloat(n, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", n)
		}
	}
	return out, nil
}
