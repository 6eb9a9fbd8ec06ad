package experiments

import (
	"reflect"
	"testing"
)

// TestEveryExperimentRuns drives every registered id through one session at
// tiny scale, the in-process twin of `bnmle -exp all`: each id yields
// non-empty, rectangular tables under its own id.
func TestEveryExperimentRuns(t *testing.T) {
	s := NewSession(tinyParams(), IDs()...)
	for _, id := range IDs() {
		tabs, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tabs) != 1 || tabs[0].ID != id {
			t.Fatalf("%s: got %d tables, first id %q; want its own table only", id, len(tabs), tabs[0].ID)
		}
		tab := tabs[0]
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", id)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: row %v has %d cells, header has %d", id, row, len(row), len(tab.Header))
			}
		}
	}
}

// TestPaperSweepRunsOncePerNetwork pins the sharing the session exists for:
// Figs. 1–6 project one tracking sweep per network, Figs. 7/8 one cluster
// sweep, Tables II/III one classification pass.
func TestPaperSweepRunsOncePerNetwork(t *testing.T) {
	p := tinyParams()
	p.Sizes = []int{300}
	p.Events = 300
	p.Queries = 5
	p.ClassTests = 5
	p.SiteList = []int{2}
	s := NewSession(p, IDs()...)
	run := func(id string) *Table {
		t.Helper()
		tabs, err := s.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		return tabs[0]
	}

	run("fig1")
	hepar := s.tracking["hepar2"]
	if hepar == nil || len(s.tracking) != 1 {
		t.Fatalf("after fig1 the session holds %d sweeps, want hepar2's only", len(s.tracking))
	}
	for _, id := range []string{"fig2", "fig3", "fig4", "fig5", "fig6"} {
		run(id)
	}
	// fig1 fixes hepar2, fig2 link, the rest sweep p.Networks = alarm.
	if len(s.tracking) != 3 || s.tracking["alarm"] == nil || s.tracking["link"] == nil {
		t.Errorf("after fig1..fig6 the session holds %d sweeps, want alarm, hepar2, link", len(s.tracking))
	}
	if s.tracking["hepar2"] != hepar {
		t.Error("hepar2 was swept again")
	}

	run("fig7")
	sweep := reflect.ValueOf(s.cluster).Pointer()
	run("fig8")
	if s.cluster == nil || reflect.ValueOf(s.cluster).Pointer() != sweep {
		t.Error("fig8 ran its own cluster sweep")
	}

	t2 := run("table2")
	if t3 := run("table3"); t2 != s.classes[0] || t3 != s.classes[1] || t3.ID != "table3" {
		t.Error("table2 and table3 did not come from one classification pass")
	}
}
