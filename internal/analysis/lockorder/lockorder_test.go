package lockorder

import (
	"os"
	"strings"
	"testing"

	"rstore/internal/analysis/rvet/rvettest"
)

// fixtureTable ranks a above b for the single-package fixture.
var fixtureTable = []Edge{
	{From: "rstore/internal/server.T.a", To: "rstore/internal/server.T.b", Reason: "fixture: a ranks above b"},
}

func TestEdgeRules(t *testing.T) {
	rvettest.Run(t, NewAnalyzer(fixtureTable), "testdata/src", "rstore/internal/server")
}

// TestCrossPackageEdge proves the lock graph resolves through imports: the
// edge's To lock lives in a different fixture package, reached via
// Pass.Load over the fixture tree.
func TestCrossPackageEdge(t *testing.T) {
	rvettest.RunTree(t, NewAnalyzer(nil), "testdata/xpkg", "a", map[string]string{
		"a": "rstore/internal/xfix/a",
		"b": "rstore/internal/xfix/b",
	})
}

// TestCyclicTableReported: a table that declares both directions of a pair
// proves nothing and must itself be a finding.
func TestCyclicTableReported(t *testing.T) {
	cyclic := []Edge{
		{From: "x", To: "y", Reason: "test"},
		{From: "y", To: "x", Reason: "test"},
	}
	diags := rvettest.Diagnostics(t, NewAnalyzer(cyclic), "testdata/clean", "rstore/internal/server")
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "lock-rank table is cyclic") {
			found = true
		}
	}
	if !found {
		t.Errorf("cyclic table was not reported (diags: %v)", diags)
	}
}

// TestTableAcyclic pins the production table's deadlock-freedom claim.
func TestTableAcyclic(t *testing.T) {
	if cyc := tableCycle(Table); cyc != nil {
		t.Errorf("production lock-rank table has a cycle: %s", strings.Join(cyc, " -> "))
	}
	for _, e := range Table {
		if e.Reason == "" {
			t.Errorf("table edge %s -> %s has no reason: rankings must stay auditable", e.From, e.To)
		}
	}
}

func TestEscapeRequiresReason(t *testing.T) {
	diags := rvettest.Diagnostics(t, NewAnalyzer(nil), "testdata/escapes", "rstore/internal/server")
	var reasonless bool
	findings := 0
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "requires a reason"):
			reasonless = true
		case d.Analyzer == Analyzer.Name && strings.Contains(d.Message, "T.a -> "):
			findings++
		}
	}
	if !reasonless {
		t.Error("reason-less escape was not reported")
	}
	if findings != 1 {
		t.Errorf("a reason-less escape must not suppress: got %d findings, want 1 (diags: %v)", findings, diags)
	}
}

// TestEscapeSilencesOnlyItsSite: reports are deduplicated per site, so an
// escape on one site of an edge leaves every other site of it reported.
func TestEscapeSilencesOnlyItsSite(t *testing.T) {
	diags := rvettest.Diagnostics(t, NewAnalyzer(nil), "testdata/escapes", "rstore/internal/server")
	var lines []int
	for _, d := range diags {
		if d.Analyzer == Analyzer.Name && strings.Contains(d.Message, "T.c -> rstore/internal/server.T.d") {
			lines = append(lines, d.Pos.Line)
		}
	}
	src, err := os.ReadFile("testdata/escapes/escapes.go")
	if err != nil {
		t.Fatal(err)
	}
	want := 0 // the line of Unescaped's t.d.Lock(), the one unescaped site of c -> d
	for i, line := range strings.Split(string(src), "\n") {
		if strings.Contains(line, "the one c -> d finding") {
			want = i + 1
		}
	}
	if len(lines) != 1 || lines[0] != want {
		t.Errorf("c -> d reported at lines %v, want line %d alone (diags: %v)", lines, want, diags)
	}
}
