package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"distbayes/internal/bn"
	"distbayes/internal/core"
	"distbayes/internal/netgen"
)

// tinyParams keeps experiment smoke tests fast.
func tinyParams() Params {
	return Params{
		Networks:    []string{"alarm"},
		Network:     "alarm",
		Sizes:       []int{500, 2000},
		Events:      2000,
		Eps:         0.2,
		EpsList:     []float64{0.1, 0.3},
		Sites:       5,
		SiteList:    []int{2, 3},
		NodeTargets: []int{24, 124},
		Queries:     50,
		ClassTests:  50,
		Runs:        1,
		Seed:        7,
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", Params{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestIDsRegistered pins the registry in sorted order: the paper's figures
// and tables, NEW-ALARM, and the ablation-nb and drift extensions.
func TestIDsRegistered(t *testing.T) {
	want := []string{"ablation-nb", "drift", "fig1", "fig10",
		"fig11", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "newalarm",
		"table1", "table2", "table3"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
}

func TestTable1(t *testing.T) {
	tabs, err := Run("table1", Params{Networks: []string{"alarm", "hepar2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 1 || len(tabs[0].Rows) != 2 {
		t.Fatalf("table1 shape: %d tables", len(tabs))
	}
	if tabs[0].Rows[0][1] != "37" || tabs[0].Rows[0][3] != "509" {
		t.Errorf("alarm row = %v", tabs[0].Rows[0])
	}
	if tabs[0].Rows[1][1] != "70" || tabs[0].Rows[1][3] != "1453" {
		t.Errorf("hepar2 row = %v", tabs[0].Rows[1])
	}
}

func TestTrackingSpecValidation(t *testing.T) {
	m, _ := netgen.ModelByName("alarm")
	if _, err := runTracking(trackingSpec{model: m}); err == nil {
		t.Error("no checkpoints accepted")
	}
	if _, err := runTracking(trackingSpec{model: m, checkpoints: []int{100, 50}}); err == nil {
		t.Error("descending checkpoints accepted")
	}
}

func TestFig1SmokeAndShape(t *testing.T) {
	tabs, err := Run("fig1", tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	tab := tabs[0]
	// 4 algorithms x 2 checkpoints.
	if len(tab.Rows) != 8 {
		t.Fatalf("fig1 rows = %d, want 8", len(tab.Rows))
	}
	// Errors shrink with more data for the exact algorithm (statistical
	// error decreases).
	var exact5h, exact2k float64
	for _, row := range tab.Rows {
		if row[0] == "exact" && row[1] == "500" {
			exact5h = mustF(t, row[7])
		}
		if row[0] == "exact" && row[1] == "2000" {
			exact2k = mustF(t, row[7])
		}
	}
	if !(exact2k < exact5h) {
		t.Errorf("exact mean error did not shrink: %v -> %v", exact5h, exact2k)
	}
}

func TestFig6MessagesOrdering(t *testing.T) {
	p := tinyParams()
	p.Sizes = []int{4000}
	tabs, err := Run("fig6", p)
	if err != nil {
		t.Fatal(err)
	}
	row := tabs[0].Rows[0]
	exact, baseline := mustF(t, row[2]), mustF(t, row[3])
	uniform, nonuniform := mustF(t, row[4]), mustF(t, row[5])
	if !(exact > baseline && exact > uniform && exact > nonuniform) {
		t.Errorf("exact (%v) should dominate approximations (%v, %v, %v)", exact, baseline, uniform, nonuniform)
	}
	// Exact accounting is 2n per event (Lemma 5).
	net, _ := netgen.ByName("alarm")
	if want := float64(2 * net.Len() * 4000); exact != want {
		t.Errorf("exact messages = %v, want %v", exact, want)
	}
}

func TestClassificationTables(t *testing.T) {
	p := tinyParams()
	// Message domination over EXACTMLE needs enough stream for the hot
	// counters to enter their sampling regime.
	p.Events = 30000
	tabs, err := Run("table2", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("classification produced %d tables, want 2 (II and III)", len(tabs))
	}
	for _, row := range tabs[0].Rows {
		for _, cell := range row[1:] {
			v := mustF(t, cell)
			if v < 0 || v > 1 {
				t.Errorf("error rate %v out of [0,1]", v)
			}
		}
	}
	// Table III: exact messages must dominate each approximation.
	for _, row := range tabs[1].Rows {
		exact := mustF(t, row[1])
		for _, cell := range row[2:] {
			if mustF(t, cell) >= exact {
				t.Errorf("approximation messages %v >= exact %v", cell, exact)
			}
		}
	}
}

func TestNewAlarmExperiment(t *testing.T) {
	p := tinyParams()
	p.Events = 20000
	p.Queries = 10
	tabs, err := Run("newalarm", p)
	if err != nil {
		t.Fatal(err)
	}
	row := tabs[0].Rows[0]
	u, nu := mustF(t, row[1]), mustF(t, row[2])
	// At small m the counters are count-bound and the two allocations cost
	// nearly the same; the differentiation is in the theoretical bounds
	// (paper: ~35% on NEW-ALARM). Assert the measured gap is small here and
	// that the theory column shows the published direction.
	if gap := (nu - u) / u; gap > 0.25 || gap < -0.25 {
		t.Errorf("measured gap %v too large at small m", gap)
	}
	theory := strings.TrimSuffix(row[4], "%")
	if v := mustF(t, theory); v < 20 {
		t.Errorf("theoretical reduction = %v%%, want >= 20%% (paper: ~35%%)", v)
	}
}

func TestFig9Shapes(t *testing.T) {
	p := tinyParams()
	p.Events = 1000
	p.Queries = 1
	tabs, err := Run("fig9", p)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	if len(rows) != 2 {
		t.Fatalf("fig9 rows = %d", len(rows))
	}
	// Exact message count grows linearly with node count: 2n per event.
	n0, _ := strconv.Atoi(rows[0][0])
	n1, _ := strconv.Atoi(rows[1][0])
	e0, e1 := mustF(t, rows[0][3]), mustF(t, rows[1][3])
	if e0 != float64(2*n0*1000) || e1 != float64(2*n1*1000) {
		t.Errorf("exact messages (%v, %v) don't match 2n*m", e0, e1)
	}
}

func TestFig10Shape(t *testing.T) {
	p := tinyParams()
	p.Queries = 30
	tabs, err := Run("fig10", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != len(p.EpsList)*len(p.Sizes) {
		t.Fatalf("fig10 rows = %d", len(tabs[0].Rows))
	}
}

func TestFig11Shape(t *testing.T) {
	p := tinyParams()
	p.Events = 3000
	tabs, err := Run("fig11", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs[0].Rows) != len(fig11Sites) {
		t.Fatalf("fig11 rows = %d, want %d", len(tabs[0].Rows), len(fig11Sites))
	}
}

func TestAblations(t *testing.T) {
	p := tinyParams()
	p.Events = 5000
	p.Queries = 20
	for _, id := range []string{"ablation-nb"} {
		tabs, err := Run(id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "demo", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "hello,world"}},
		Notes: []string{"note"},
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "hello,world") || !strings.Contains(out, "note:") {
		t.Errorf("render output missing pieces:\n%s", out)
	}
	buf.Reset()
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"hello,world\"") {
		t.Errorf("CSV quoting missing: %s", buf.String())
	}
}

func TestMergeDefaults(t *testing.T) {
	p := merge(Params{})
	d := Defaults()
	if p.Eps != d.Eps || p.Sites != d.Sites || len(p.Sizes) != len(d.Sizes) {
		t.Errorf("merge did not fill defaults: %+v", p)
	}
	p2 := merge(Params{Eps: 0.5, Sites: 3})
	if p2.Eps != 0.5 || p2.Sites != 3 {
		t.Errorf("merge overwrote explicit values: %+v", p2)
	}
}

func mustF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

var (
	_ = bn.Variable{}
	_ = core.ExactMLE
)

func TestClusterFigures(t *testing.T) {
	p := tinyParams()
	p.Events = 600
	p.SiteList = []int{2, 3}
	for _, id := range []string{"fig7", "fig8"} {
		tabs, err := Run(id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		// 2 networks x 2 site counts.
		if len(tabs[0].Rows) != 4 {
			t.Errorf("%s rows = %d, want 4", id, len(tabs[0].Rows))
		}
		for _, row := range tabs[0].Rows {
			for _, cell := range row[3:] {
				if v := mustF(t, cell); v < 0 {
					t.Errorf("%s negative metric %v", id, v)
				}
			}
		}
	}
}

func TestFig4Fig5Smoke(t *testing.T) {
	p := tinyParams()
	p.Queries = 30
	for _, id := range []string{"fig4", "fig5"} {
		tabs, err := Run(id, p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, row := range tabs[0].Rows {
			for _, cell := range row[2:] {
				if v := mustF(t, cell); v < 0 {
					t.Errorf("%s negative error %v", id, v)
				}
			}
		}
	}
}

func TestChartRendering(t *testing.T) {
	tab := &Table{
		ID: "demo", Title: "demo chart",
		Header: []string{"m", "exact", "approx", "name"},
		Rows: [][]string{
			{"1000", "1000", "900", "a"},
			{"10000", "10000", "2000", "a"},
			{"100000", "100000", "4000", "a"},
		},
	}
	cols := NumericColumns(tab)
	if len(cols) != 3 || cols[0] != 0 || cols[2] != 2 {
		t.Fatalf("NumericColumns = %v", cols)
	}
	var buf bytes.Buffer
	c := DefaultChart(true)
	if err := c.Render(&buf, tab, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "o=exact") || !strings.Contains(out, "x=approx") {
		t.Errorf("legend missing:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 16 {
		t.Errorf("chart too short:\n%s", out)
	}
	// Error paths.
	if err := c.Render(&buf, tab, 99, []int{1}); err == nil {
		t.Error("bad x column accepted")
	}
	if err := c.Render(&buf, tab, 0, []int{99}); err == nil {
		t.Error("bad y column accepted")
	}
	if err := c.Render(&buf, tab, 0, []int{3}); err == nil {
		t.Error("non-numeric column accepted")
	}
}

func TestChartLinearScaleAndConstantSeries(t *testing.T) {
	tab := &Table{
		ID: "demo2", Title: "flat",
		Header: []string{"x", "y"},
		Rows:   [][]string{{"1", "5"}, {"2", "5"}},
	}
	var buf bytes.Buffer
	c := Chart{Width: 2, Height: 2} // clamped up internally
	if err := c.Render(&buf, tab, 0, []int{1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "o=y") {
		t.Errorf("legend missing: %s", buf.String())
	}
}
