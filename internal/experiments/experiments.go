// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI). The paper runs each network's stream once and
// reads that run several ways, and so does this package: a Session owns the
// three computations several artifacts share — the tracking sweep per
// network (Figs. 1–6), the live TCP cluster sweep (Figs. 7/8) and the
// classification pass (Tables II/III) — computes each on first use, and every
// figure is a small declaration projecting one of them into a Table. The
// single-point studies, the ablations and the cluster extensions share no
// data and keep their own runs. Default parameters are scaled down from the
// paper's largest runs (up to 5M events) so the full suite finishes on a
// laptop; the cmd/bnmle flags reach full scale.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"distbayes/internal/cluster"
)

// Params carries every knob an experiment can use. Zero values are filled
// from Defaults by Run.
type Params struct {
	// Networks are Table I network names for multi-network experiments.
	Networks []string
	// Network is the single network of fig10 (fig1, fig2 and
	// fig11 fix theirs as the paper does).
	Network string
	// Sizes are training-instance checkpoints (paper: 5K, 50K, 500K, 5M).
	Sizes []int
	// Events is the fixed stream length for single-size experiments
	// (fig9, fig11, tables II/III, NEW-ALARM; paper: 500K or 50K).
	Events int
	// Eps is the approximation budget ε (paper default 0.1).
	Eps float64
	// EpsList is the sweep for fig10.
	EpsList []float64
	// Delta is the failure probability δ.
	Delta float64
	// Sites is k (paper default 30).
	Sites int
	// SiteList is the sweep for fig7/fig8/fig11.
	SiteList []int
	// NodeTargets are the stripped-network sizes for fig9.
	NodeTargets []int
	// Queries is the number of probability test events (paper: 1000).
	Queries int
	// MinProb is the test-event probability floor (paper: 0.01).
	MinProb float64
	// ClassTests is the number of classification tests (paper: 1000).
	ClassTests int
	// Smoothing is the Laplace pseudo-count used by classification runs.
	Smoothing float64
	// Runs is the number of independent runs; medians are reported
	// (paper: 5).
	Runs int
	// Seed drives all randomness.
	Seed uint64
}

// Defaults returns the scaled-down default parameters. Checkpoints stop at
// 50K (the paper continues to 5M; pass larger -sizes to cmd/bnmle for full
// scale) and large networks are exercised at reduced stream lengths.
func Defaults() Params {
	return Params{
		Networks:    []string{"alarm", "hepar2", "link", "munin"},
		Network:     "hepar2",
		Sizes:       []int{5000, 50000},
		Events:      50000,
		Eps:         0.1,
		EpsList:     []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4},
		Delta:       0.25,
		Sites:       30,
		SiteList:    []int{2, 4, 6, 8, 10},
		NodeTargets: []int{24, 124, 224, 324, 424, 524, 624, 724},
		Queries:     1000,
		MinProb:     0.01,
		ClassTests:  1000,
		Smoothing:   0.5,
		Runs:        3,
		Seed:        1,
	}
}

// merge fills zero-valued fields of p from Defaults.
func merge(p Params) Params {
	d := Defaults()
	if len(p.Networks) == 0 {
		p.Networks = d.Networks
	}
	if p.Network == "" {
		p.Network = d.Network
	}
	if len(p.Sizes) == 0 {
		p.Sizes = d.Sizes
	}
	if p.Events == 0 {
		p.Events = d.Events
	}
	if p.Eps == 0 {
		p.Eps = d.Eps
	}
	if len(p.EpsList) == 0 {
		p.EpsList = d.EpsList
	}
	if p.Delta == 0 {
		p.Delta = d.Delta
	}
	if p.Sites == 0 {
		p.Sites = d.Sites
	}
	if len(p.SiteList) == 0 {
		p.SiteList = d.SiteList
	}
	if len(p.NodeTargets) == 0 {
		p.NodeTargets = d.NodeTargets
	}
	if p.Queries == 0 {
		p.Queries = d.Queries
	}
	if p.MinProb == 0 {
		p.MinProb = d.MinProb
	}
	if p.ClassTests == 0 {
		p.ClassTests = d.ClassTests
	}
	if p.Smoothing == 0 {
		p.Smoothing = d.Smoothing
	}
	if p.Runs == 0 {
		p.Runs = d.Runs
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// Table is a rendered experiment result: the rows/series of one paper
// artifact.
type Table struct {
	// ID is the experiment identifier ("fig6", "table2", ...).
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data cells, formatted.
	Rows [][]string
	// Notes record scaling substitutions or commentary.
	Notes []string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, "  "))
		return err
	}
	if err := line(t.Header); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := line(rule); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// runner produces one experiment's tables from the session's parameters and
// shared sweeps.
type runner func(*Session) ([]*Table, error)

// registry maps experiment IDs to runners; populated by the init functions
// beside each group of experiments.
var registry = map[string]runner{}

// IDs returns the registered experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Session runs experiments over one set of parameters and owns the
// computations several paper artifacts read, so that running many ids
// computes each once. The memo lives and dies with the Session value.
type Session struct {
	p Params
	// requested are the ids this session was built for (see classTable).
	requested []string
	// tracking holds the paper sweep per network name (paperSweep).
	tracking map[string]*trackingResult
	// cluster is the Figs. 7/8 TCP sweep, nil until first use (clusterSweep).
	cluster map[clusterPoint]cluster.Result
	// classes are Tables II and III, nil until first use (classification).
	classes []*Table
}

// NewSession merges defaults into p and prepares a session that will be
// asked for ids.
func NewSession(p Params, ids ...string) *Session {
	return &Session{p: merge(p), requested: ids, tracking: map[string]*trackingResult{}}
}

// Run executes the experiment with the given ID.
func (s *Session) Run(id string) ([]*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(s)
}

// Run executes the experiment with the given ID after merging defaults into
// p: a one-experiment session.
func Run(id string, p Params) ([]*Table, error) {
	return NewSession(p, id).Run(id)
}

func fmtInt(v int64) string { return fmt.Sprintf("%d", v) }

func fmtF(v float64) string { return fmt.Sprintf("%.6g", v) }
