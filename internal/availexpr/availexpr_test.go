package availexpr_test

import (
	"testing"

	. "pathflow/internal/availexpr"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/ir"
)

func instr(op ir.Op, dst, a, b ir.Var, k ir.Value) ir.Instr {
	return ir.Instr{Op: op, Dst: dst, A: a, B: b, K: k}
}

func TestStraightLineRedundancyAndKill(t *testing.T) {
	// vars: 0=a 1=b 2=c 3=d 4=e 5=x
	g := cfg.New("straight")
	n := g.AddNode("n")
	nd := g.Node(n)
	nd.Instrs = []ir.Instr{
		instr(ir.Input, 0, ir.NoVar, ir.NoVar, 0), // a = input
		instr(ir.Input, 1, ir.NoVar, ir.NoVar, 0), // b = input
		instr(ir.Add, 2, 0, 1, 0),                 // c = a + b
		instr(ir.Add, 3, 0, 1, 0),                 // d = a + b   (redundant)
		instr(ir.Input, 0, ir.NoVar, ir.NoVar, 0), // a = input   (kills a+b)
		instr(ir.Add, 4, 0, 1, 0),                 // e = a + b   (not redundant)
		instr(ir.Add, 5, 5, 5, 0),                 // x = x + x   (self-kill: not avail after)
		instr(ir.Add, 5, 5, 5, 0),                 // x = x + x   (still not redundant)
	}
	nd.Kind = cfg.TermReturn
	nd.Ret = 3
	g.AddEdge(g.Entry, n)
	g.AddEdge(n, g.Exit)
	if err := g.Validate(6); err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(g, 6)
	if u.Size() != 2 { // a+b and x+x
		t.Fatalf("universe size = %d, want 2", u.Size())
	}
	r := AnalyzeBoxed(g, u, nil)
	flags := r.Redundant(n)
	want := []bool{false, false, false, true, false, false, false, false}
	for i, w := range want {
		if flags[i] != w {
			t.Errorf("Redundant[%d] = %v, want %v", i, flags[i], w)
		}
	}
	static, dyn := RedundantCount(g, r, []int64{0, 0, 5, 0}[:g.NumNodes()])
	if static != 1 || dyn != 5 {
		t.Errorf("RedundantCount = (%d, %d), want (1, 5)", static, dyn)
	}
}

// diamond: h branches on p; both legs may compute a+b; join j recomputes
// a+b and returns it.
func diamond(t *testing.T, computeInElse bool, constCond bool) (*cfg.Graph, cfg.NodeID) {
	t.Helper()
	// vars: 0=p 1=a 2=b 3=t 4=u
	g := cfg.New("diamond")
	h := g.AddNode("h")
	tt := g.AddNode("t")
	ff := g.AddNode("f")
	j := g.AddNode("j")
	pInstr := instr(ir.Input, 0, ir.NoVar, ir.NoVar, 0)
	if constCond {
		pInstr = instr(ir.Const, 0, ir.NoVar, ir.NoVar, 1) // p = 1: else-leg dead
	}
	g.Node(h).Instrs = []ir.Instr{
		pInstr,
		instr(ir.Input, 1, ir.NoVar, ir.NoVar, 0), // a = input
		instr(ir.Input, 2, ir.NoVar, ir.NoVar, 0), // b = input
	}
	g.Node(h).Kind = cfg.TermBranch
	g.Node(h).Cond = 0
	g.Node(tt).Instrs = []ir.Instr{instr(ir.Add, 3, 1, 2, 0)} // t = a + b
	if computeInElse {
		g.Node(ff).Instrs = []ir.Instr{instr(ir.Add, 4, 1, 2, 0)} // u = a + b
	}
	g.Node(j).Instrs = []ir.Instr{instr(ir.Add, 3, 1, 2, 0)} // t = a + b (redundant?)
	g.Node(j).Kind = cfg.TermReturn
	g.Node(j).Ret = 3
	g.AddEdge(g.Entry, h)
	g.AddEdge(h, tt)
	g.AddEdge(h, ff)
	g.AddEdge(tt, j)
	g.AddEdge(ff, j)
	g.AddEdge(j, g.Exit)
	if err := g.Validate(5); err != nil {
		t.Fatal(err)
	}
	return g, j
}

func TestMustJoin(t *testing.T) {
	// Both legs compute a+b: the join's recomputation is redundant.
	g, j := diamond(t, true, false)
	u := NewUniverse(g, 5)
	r := AnalyzeBoxed(g, u, nil)
	if !r.Redundant(j)[0] {
		t.Error("a+b computed on both legs but join recomputation not redundant")
	}

	// Only the taken leg computes it: intersection kills it at the join.
	g, j = diamond(t, false, false)
	u = NewUniverse(g, 5)
	r = AnalyzeBoxed(g, u, nil)
	if r.Redundant(j)[0] {
		t.Error("a+b available after one-leg computation; must-join broken")
	}
}

func TestGuidedMustJoinRecoversHotLeg(t *testing.T) {
	// Only the taken leg computes a+b, but the condition is the constant
	// 1: guided by constant propagation the else-leg drops out of the
	// intersection and the join's recomputation becomes redundant.
	g, j := diamond(t, false, true)
	u := NewUniverse(g, 5)
	plain := AnalyzeBoxed(g, u, nil)
	if plain.Redundant(j)[0] {
		t.Fatal("unguided analysis should not see through the branch")
	}
	cp := constprop.AnalyzeBoxed(g, 5, true)
	guided := AnalyzeBoxed(g, u, cp.Sol)
	if !guided.Redundant(j)[0] {
		t.Error("guided analysis missed availability along the only executable leg")
	}
	// Guided availability is pointwise ⊇ the unguided one.
	for n := 0; n < g.NumNodes(); n++ {
		gp, pp := guided.AvailIn(cfg.NodeID(n)), plain.AvailIn(cfg.NodeID(n))
		if gp != nil && pp != nil && !gp.SupersetOf(pp) {
			t.Errorf("node %d: guided avail not superset of plain", n)
		}
	}
}

func TestUnreachedNodeHasNoFact(t *testing.T) {
	g, _ := diamond(t, true, true)
	u := NewUniverse(g, 5)
	cp := constprop.AnalyzeBoxed(g, 5, true)
	r := AnalyzeBoxed(g, u, cp.Sol)
	// The else node (id from construction: entry=0? use name lookup).
	for _, nd := range g.Nodes {
		if nd.Name == "f" {
			if r.AvailIn(nd.ID) != nil {
				t.Error("dead else-leg has an availability fact")
			}
			if got := r.Redundant(nd.ID); len(got) != len(nd.Instrs) {
				t.Error("Redundant length mismatch on unreached node")
			}
		}
	}
}
