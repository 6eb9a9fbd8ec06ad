package experiments

import (
	"fmt"
	"slices"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
	"distbayes/internal/stream"
)

func init() {
	registry["table1"] = runTable1
	for _, f := range paperFigures {
		registry[f.id] = f.run
	}
	registry["fig9"] = runFig9
	registry["fig10"] = runFig10
	registry["fig11"] = runFig11
	registry["table2"] = classTable(0)
	registry["table3"] = classTable(1)
	registry["newalarm"] = runNewAlarm
}

var (
	allStrategies   = []core.Strategy{core.ExactMLE, core.Baseline, core.Uniform, core.NonUniform}
	paperStrategies = allStrategies[1:]
)

// The metric a figure plots: samples selects the pooled per-query errors of
// one (strategy, checkpoint) cell of a tracking sweep, reading one number.
type (
	reading func(r *trackingResult, st core.Strategy, ci int) float64
	samples func(r *trackingResult, st core.Strategy, ci int) []float64
)

func errTruth(r *trackingResult, st core.Strategy, ci int) []float64 { return r.errTruth[st][ci] }
func errMLE(r *trackingResult, st core.Strategy, ci int) []float64   { return r.errMLE[st][ci] }
func messages(r *trackingResult, st core.Strategy, ci int) float64   { return r.messages[st][ci] }

func meanOf(of samples) reading {
	return func(r *trackingResult, st core.Strategy, ci int) float64 { return mean(of(r, st, ci)) }
}

// figure declares one of Figs. 1–6 as a projection of the paper sweep: which
// networks, which strategies, and either the samples a boxplot summarises
// (one row per strategy and checkpoint) or the reading a line plots (one row
// per checkpoint, one column per strategy).
type figure struct {
	id, title string
	// network is the paper's fixed network; empty means one block of rows per
	// p.Networks behind a leading network column.
	network    string
	strategies []core.Strategy
	box        samples
	line       reading
}

var paperFigures = []figure{
	{id: "fig1", title: "Fig. 1: testing error (relative to ground truth) vs training instances, HEPAR II",
		network: "hepar2", strategies: allStrategies, box: errTruth},
	{id: "fig2", title: "Fig. 2: testing error (relative to ground truth) vs training instances, LINK",
		network: "link", strategies: allStrategies, box: errTruth},
	{id: "fig3", title: "Fig. 3: mean testing error (relative to ground truth) vs training instances",
		strategies: allStrategies, line: meanOf(errTruth)},
	{id: "fig4", title: "Fig. 4: testing error (relative to EXACTMLE) vs training instances",
		strategies: []core.Strategy{core.Uniform, core.NonUniform}, box: errMLE},
	{id: "fig5", title: "Fig. 5: mean testing error (relative to EXACTMLE) vs training instances",
		strategies: paperStrategies, line: meanOf(errMLE)},
	{id: "fig6", title: "Fig. 6: communication cost vs number of training instances",
		strategies: allStrategies, line: messages},
}

func (f figure) run(s *Session) ([]*Table, error) {
	t := &Table{ID: f.id, Title: f.title}
	networks := []string{f.network}
	if f.network == "" {
		networks = s.p.Networks
		t.Header = []string{"network"}
	}
	if f.box != nil {
		t.Header = append(t.Header, "algorithm", "m", "min", "q1", "median", "q3", "max", "mean")
	} else {
		t.Header = append(append(t.Header, "m"), strategyNames(f.strategies, "")...)
	}
	for _, name := range networks {
		res, err := s.paperSweep(name)
		if err != nil {
			return nil, err
		}
		var lead []string
		if f.network == "" {
			lead = []string{name}
		}
		if f.box != nil {
			t.Rows = append(t.Rows, boxRows(lead, res, f.strategies, f.box)...)
		} else {
			t.Rows = append(t.Rows, lineRows(lead, res, f.strategies, f.line)...)
		}
	}
	return []*Table{t}, nil
}

// boxRows shapes one row per (strategy, checkpoint): the five-number summary
// and mean of the pooled samples.
func boxRows(lead []string, r *trackingResult, strategies []core.Strategy, of samples) [][]string {
	var rows [][]string
	for _, st := range strategies {
		for ci, m := range r.checkpoints {
			s := summarize(of(r, st, ci))
			rows = append(rows, slices.Concat(lead, []string{
				st.String(), fmtInt(int64(m)),
				fmtF(s.Min), fmtF(s.Q1), fmtF(s.Median), fmtF(s.Q3), fmtF(s.Max), fmtF(s.Mean),
			}))
		}
	}
	return rows
}

// lineRows shapes one row per checkpoint with one column per strategy.
func lineRows(lead []string, r *trackingResult, strategies []core.Strategy, of reading) [][]string {
	var rows [][]string
	for ci, m := range r.checkpoints {
		rows = append(rows, slices.Concat(lead, []string{fmtInt(int64(m))},
			strategyCells(strategies, func(st core.Strategy) float64 { return of(r, st, ci) })))
	}
	return rows
}

// strategyNames are the header cells of per-strategy columns.
func strategyNames(strategies []core.Strategy, suffix string) []string {
	names := make([]string, len(strategies))
	for i, st := range strategies {
		names[i] = st.String() + suffix
	}
	return names
}

// strategyCells formats one value per strategy: the trailing columns of every
// row that compares algorithms side by side.
func strategyCells(strategies []core.Strategy, of func(core.Strategy) float64) []string {
	cells := make([]string, len(strategies))
	for i, st := range strategies {
		cells[i] = fmtF(of(st))
	}
	return cells
}

// modelOf draws ground-truth parameters for net from the default Dirichlet
// options at the given CPT seed.
func modelOf(net *bn.Network, seed uint64) (*bn.Model, error) {
	opt := netgen.DefaultCPTOptions()
	opt.Seed = seed
	cpds, err := netgen.GenCPTs(net, opt)
	if err != nil {
		return nil, err
	}
	return bn.NewModel(net, cpds)
}

// defaultCPTSeed is the seed netgen.ModelByName gives the Table I networks;
// the derived networks (stripped LINK, NEW-ALARM, the claims test's
// Naïve-Bayes net) use it too.
var defaultCPTSeed = netgen.DefaultCPTOptions().Seed

// runTable1 reproduces Table I: the network inventory.
func runTable1(s *Session) ([]*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Table I: Bayesian networks used in the experiments (synthetic structural twins)",
		Header: []string{"network", "nodes", "edges", "params", "max-indegree", "max-card", "cpt-cells"},
		Notes: []string{
			"node/edge/parameter counts match the published Table I exactly; structures are synthetic twins (see README, Reproducing the paper)",
		},
	}
	for _, name := range s.p.Networks {
		net, err := netgen.ByName(name)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmtInt(int64(net.Len())),
			fmtInt(int64(net.NumEdges())),
			fmtInt(int64(net.NumParams())),
			fmtInt(int64(net.MaxInDegree())),
			fmtInt(int64(net.MaxCard())),
			fmtInt(int64(net.NumCells())),
		})
	}
	return []*Table{t}, nil
}

// runFig9 reproduces Fig. 9: communication cost as the network scales,
// obtained by iteratively stripping sinks from LINK.
func runFig9(s *Session) ([]*Table, error) {
	p := s.p
	link, err := netgen.ByName("link")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig9", Title: "Fig. 9: communication cost vs network size (LINK with sinks removed)",
		Header: append([]string{"nodes", "edges", "m"}, strategyNames(allStrategies, "")...),
		Notes:  []string{"paper uses 500K training instances; column m records the stream length used here"},
	}
	for _, target := range p.NodeTargets {
		sub, err := netgen.StripSinks(link, target)
		if err != nil {
			return nil, err
		}
		m, err := modelOf(sub, defaultCPTSeed)
		if err != nil {
			return nil, err
		}
		spec := s.spec(m, paperStrategies...)
		spec.queries, spec.runs = 1, 1
		msgs, err := s.lastPoint(spec)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{
			fmtInt(int64(sub.Len())), fmtInt(int64(sub.NumEdges())), fmtInt(int64(p.Events)),
		}, strategyCells(allStrategies, msgs)...))
	}
	return []*Table{t}, nil
}

// runFig10 reproduces Fig. 10: mean error against ground truth as a function
// of the approximation factor ε (BASELINE and NONUNIFORM, HEPAR II).
func runFig10(s *Session) ([]*Table, error) {
	p := s.p
	m, err := netgen.ModelByName(p.Network)
	if err != nil {
		return nil, err
	}
	strategies := []core.Strategy{core.Baseline, core.NonUniform}
	tb := &Table{
		ID: "fig10", Title: fmt.Sprintf("Fig. 10: %s mean error against ground truth vs approximation factor ε", p.Network),
		Header: append([]string{"m", "eps"}, strategyNames(strategies, "")...),
	}
	for _, eps := range p.EpsList {
		spec := s.spec(m, strategies...)
		spec.eps = eps
		res, err := runTracking(spec)
		if err != nil {
			return nil, err
		}
		for _, row := range lineRows(nil, res, strategies, meanOf(errTruth)) {
			tb.Rows = append(tb.Rows, slices.Insert(row, 1, fmtF(eps)))
		}
	}
	return []*Table{tb}, nil
}

// fig11Sites is the site sweep for Fig. 11 (the paper shows sub-linear
// message growth in k on ALARM).
var fig11Sites = []int{5, 10, 20, 30, 40, 50}

// runFig11 reproduces Fig. 11: communication cost vs number of sites.
func runFig11(s *Session) ([]*Table, error) {
	p := s.p
	m, err := netgen.ModelByName("alarm")
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig11", Title: "Fig. 11: communication cost vs number of sites (ALARM)",
		Header: append([]string{"sites", "m"}, strategyNames(paperStrategies, "")...),
	}
	for _, k := range fig11Sites {
		spec := s.spec(m, paperStrategies...)
		spec.sites, spec.queries = k, 1
		msgs, err := s.lastPoint(spec)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append([]string{fmtInt(int64(k)), fmtInt(int64(p.Events))},
			strategyCells(paperStrategies, msgs)...))
	}
	return []*Table{t}, nil
}

// classTable is the runner of Table II (i = 0) or Table III (i = 1), two
// readings of one classification pass. A session asked for both ids prints
// each table under its own id; asked for one, it prints both, as the paper
// presents them together.
func classTable(i int) runner {
	return func(s *Session) ([]*Table, error) {
		tabs, err := s.classification()
		if err != nil {
			return nil, err
		}
		if slices.Contains(s.requested, "table2") && slices.Contains(s.requested, "table3") {
			return tabs[i : i+1], nil
		}
		return tabs, nil
	}
}

// classification reproduces Tables II and III: Bayesian-classification error
// rate and the communication cost of learning the classifier. Run on first
// use and kept for the session.
func (s *Session) classification() ([]*Table, error) {
	if s.classes != nil {
		return s.classes, nil
	}
	p := s.p
	header := append([]string{"network"}, strategyNames(allStrategies, "")...)
	errT := &Table{
		ID: "table2", Title: fmt.Sprintf("Table II: error rate for Bayesian classification, %d training instances", p.Events),
		Header: header,
	}
	msgT := &Table{
		ID: "table3", Title: "Table III: communication cost (messages) to learn a Bayesian classifier",
		Header: header,
	}
	for _, name := range p.Networks {
		model, err := netgen.ModelByName(name)
		if err != nil {
			return nil, err
		}
		net := model.Network()
		tests, err := stream.GenClassTests(model, p.ClassTests, p.Seed+5)
		if err != nil {
			return nil, err
		}
		errRow := []string{name}
		msgRow := []string{name}
		for _, st := range allStrategies {
			tr, err := core.NewTracker(net, core.Config{
				Strategy: st, Eps: p.Eps, Delta: p.Delta, Sites: p.Sites,
				Seed: p.Seed + uint64(st), Smoothing: p.Smoothing,
			})
			if err != nil {
				return nil, err
			}
			training := stream.NewTraining(model, stream.NewUniformAssigner(p.Sites, p.Seed+9), p.Seed+13)
			for e := 0; e < p.Events; e++ {
				site, x := training.Next()
				tr.Update(site, x)
			}
			wrong := 0
			for _, tc := range tests {
				if tr.Classify(tc.Target, tc.X) != tc.Want {
					wrong++
				}
			}
			errRow = append(errRow, fmtF(float64(wrong)/float64(len(tests))))
			msgRow = append(msgRow, fmtF(float64(tr.Messages().Total())))
		}
		errT.Rows = append(errT.Rows, errRow)
		msgT.Rows = append(msgT.Rows, msgRow)
	}
	s.classes = []*Table{errT, msgT}
	return s.classes, nil
}

// runNewAlarm reproduces the NEW-ALARM study: 6 domains inflated to 20
// values, where the paper reports NONUNIFORM's communication ~35% below
// UNIFORM's. Measured, it is not (TestClaimNewAlarmRegime says why).
func runNewAlarm(s *Session) ([]*Table, error) {
	p := s.p
	net, err := netgen.NewAlarm()
	if err != nil {
		return nil, err
	}
	m, err := modelOf(net, defaultCPTSeed)
	if err != nil {
		return nil, err
	}
	msgs, err := s.lastPoint(s.spec(m, core.Uniform, core.NonUniform))
	if err != nil {
		return nil, err
	}
	u, nu := msgs(core.Uniform), msgs(core.NonUniform)
	// Theoretical bounds (Theorems 1 and 2): structure-dependent factors.
	bu, err := core.CostBound(net, core.Uniform, p.Eps)
	if err != nil {
		return nil, err
	}
	bn2, err := core.CostBound(net, core.NonUniform, p.Eps)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "newalarm", Title: "NEW-ALARM: UNIFORM vs NONUNIFORM communication with unbalanced cardinalities",
		Header: []string{"m", "uniform-msgs", "nonuniform-msgs", "measured-reduction", "theory-reduction"},
		Rows: [][]string{{
			fmtInt(int64(p.Events)), fmtF(u), fmtF(nu),
			fmt.Sprintf("%.1f%%", 100*(u-nu)/u),
			fmt.Sprintf("%.1f%%", 100*(bu-bn2)/bu),
		}},
		Notes: []string{
			"paper reports NONUNIFORM ~35% cheaper than UNIFORM on NEW-ALARM",
			"theory-reduction compares the Theorem 1 vs Theorem 2 bounds, which assume every counter is in its sampling regime;",
			"at the m measured so far few counters have left their exact phase, and the measured gap stays far below it (TestClaimNewAlarmRegime)",
		},
	}
	return []*Table{t}, nil
}
