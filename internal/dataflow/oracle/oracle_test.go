package oracle_test

import (
	"strings"
	"testing"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	. "pathflow/internal/dataflow/oracle"
	"pathflow/internal/ir"
)

// condGraph: h computes p = 1 and branches; both legs write r and join.
// Conditional constant propagation proves the else-leg dead; plain
// propagation does not.
func condGraph(t *testing.T) *cfg.Graph {
	t.Helper()
	// vars: 0=p 1=r
	g := cfg.New("cond")
	h := g.AddNode("h")
	tt := g.AddNode("t")
	ff := g.AddNode("f")
	j := g.AddNode("j")
	g.Node(h).Instrs = []ir.Instr{{Op: ir.Const, Dst: 0, A: ir.NoVar, B: ir.NoVar, K: 1}}
	g.Node(h).Kind = cfg.TermBranch
	g.Node(h).Cond = 0
	g.Node(tt).Instrs = []ir.Instr{{Op: ir.Const, Dst: 1, A: ir.NoVar, B: ir.NoVar, K: 7}}
	g.Node(ff).Instrs = []ir.Instr{{Op: ir.Const, Dst: 1, A: ir.NoVar, B: ir.NoVar, K: 8}}
	g.Node(j).Kind = cfg.TermReturn
	g.Node(j).Ret = 1
	g.AddEdge(g.Entry, h)
	g.AddEdge(h, tt)
	g.AddEdge(h, ff)
	g.AddEdge(tt, j)
	g.AddEdge(ff, j)
	g.AddEdge(j, g.Exit)
	if err := g.Validate(2); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMorePreciseSolutionPasses(t *testing.T) {
	g := condGraph(t)
	plain := constprop.AnalyzeBoxed(g, 2, false)
	cond := constprop.AnalyzeBoxed(g, 2, true)
	p := &constprop.Problem{NumVars: 2}
	rep := Check("constprop", "same-graph", p, plain.Boxed(), cond.Boxed(), Identity)
	if !rep.OK() {
		t.Fatalf("conditional ⊒ plain should hold: %v", rep.Err())
	}
	if rep.Checked == 0 {
		t.Error("nothing checked")
	}
	if rep.Err() != nil {
		t.Error("Err non-nil on clean report")
	}
	if !strings.Contains(rep.String(), "ok") {
		t.Errorf("clean report string = %q", rep.String())
	}
}

func TestLessPreciseSolutionFails(t *testing.T) {
	g := condGraph(t)
	plain := constprop.AnalyzeBoxed(g, 2, false)
	cond := constprop.AnalyzeBoxed(g, 2, true)
	p := &constprop.Problem{NumVars: 2}
	// Swapped: plain pretends to be the derived solution. It reaches the
	// dead else-leg (reachability violation) and merges 7 ∧ 8 = ⊥ at the
	// join (fact violation).
	rep := Check("constprop", "same-graph", p, cond.Boxed(), plain.Boxed(), Identity)
	if rep.OK() {
		t.Fatal("plain ⊒ conditional must not hold")
	}
	var kinds []string
	for _, v := range rep.Violations {
		kinds = append(kinds, v.Kind.String())
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "reachability") {
		t.Errorf("expected a reachability violation, got %s", joined)
	}
	if !strings.Contains(joined, "fact") {
		t.Errorf("expected a fact violation, got %s", joined)
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "violation") {
		t.Errorf("Err = %v", rep.Err())
	}
}

func TestIdenticalSolutionPasses(t *testing.T) {
	g := condGraph(t)
	cond := constprop.AnalyzeBoxed(g, 2, true)
	p := &constprop.Problem{NumVars: 2}
	rep := Check("constprop", "same-graph", p, cond.Boxed(), cond.Boxed(), Identity)
	if !rep.OK() {
		t.Fatalf("solution not ⊒ itself: %v", rep.Err())
	}
}
