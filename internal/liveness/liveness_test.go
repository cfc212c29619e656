package liveness_test

import (
	"testing"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/ir"
	. "pathflow/internal/liveness"
)

func instr(op ir.Op, dst, a, b ir.Var, k ir.Value) ir.Instr {
	return ir.Instr{Op: op, Dst: dst, A: a, B: b, K: k}
}

// straightLine: entry -> n -> exit, n returns c.
//
//	a = const 1; b = const 2; c = add a, b; d = mul a, a (dead)
func straightLine(t *testing.T) (*cfg.Graph, cfg.NodeID) {
	t.Helper()
	g := cfg.New("straight")
	n := g.AddNode("n")
	nd := g.Node(n)
	nd.Instrs = []ir.Instr{
		instr(ir.Const, 0, ir.NoVar, ir.NoVar, 1), // a = 1
		instr(ir.Const, 1, ir.NoVar, ir.NoVar, 2), // b = 2
		instr(ir.Add, 2, 0, 1, 0),                 // c = a + b
		instr(ir.Mul, 3, 0, 0, 0),                 // d = a * a   (dead)
	}
	nd.Kind = cfg.TermReturn
	nd.Ret = 2
	g.AddEdge(g.Entry, n)
	g.AddEdge(n, g.Exit)
	if err := g.Validate(4); err != nil {
		t.Fatal(err)
	}
	return g, n
}

func TestStraightLineDeadStore(t *testing.T) {
	g, n := straightLine(t)
	r := AnalyzeBoxed(g, 4, nil)
	out := r.LiveOut(n)
	if out == nil || out.Count() != 0 {
		t.Fatalf("LiveOut(n) = %v, want empty", out)
	}
	in := r.LiveIn(n)
	if in == nil || in.Count() != 0 {
		t.Errorf("LiveIn(n) = %v, want empty (everything defined locally)", in)
	}
	flags := r.DeadStores(n)
	want := []bool{false, false, false, true}
	for i, w := range want {
		if flags[i] != w {
			t.Errorf("DeadStores[%d] = %v, want %v", i, flags[i], w)
		}
	}
	static, dyn := DeadStoreCount(g, r, []int64{0, 0, 7, 0}[:g.NumNodes()])
	if static != 1 {
		t.Errorf("static dead stores = %d, want 1", static)
	}
	if dyn != 7 {
		t.Errorf("dyn dead stores = %d, want 7 (freq-weighted)", dyn)
	}
}

func TestTerminatorUsesAreLive(t *testing.T) {
	// branch on c: c must be live into the branch node even though no
	// instruction reads it.
	g := cfg.New("br")
	n := g.AddNode("n")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.Node(n).Instrs = []ir.Instr{
		instr(ir.Const, 0, ir.NoVar, ir.NoVar, 1), // c = 1
	}
	g.Node(n).Kind = cfg.TermBranch
	g.Node(n).Cond = 0
	for _, x := range []cfg.NodeID{a, b} {
		g.Node(x).Kind = cfg.TermReturn
		g.Node(x).Ret = ir.NoVar
	}
	g.AddEdge(g.Entry, n)
	g.AddEdge(n, a)
	g.AddEdge(n, b)
	g.AddEdge(a, g.Exit)
	g.AddEdge(b, g.Exit)
	if err := g.Validate(1); err != nil {
		t.Fatal(err)
	}
	r := AnalyzeBoxed(g, 1, nil)
	if got := r.DeadStores(n); got[0] {
		t.Error("branch condition store marked dead")
	}
	// c is consumed by n's own terminator; the successors never read it,
	// so it is dead *after* n but live *into* n's terminator.
	if r.LiveOut(n).Has(0) {
		t.Error("c live out of n although no successor reads it")
	}
}

// guidedGraph models:
//
//	p = const 1
//	if p { return u } else { return v }
//
// u is computed before the branch; v too. Unguided liveness keeps both u
// and v live across the branch. Guided by conditional constant
// propagation, the else-leg is unreachable, so v's store is dead.
func guidedGraph(t *testing.T) (*cfg.Graph, cfg.NodeID) {
	t.Helper()
	// vars: 0=p 1=u 2=v
	g := cfg.New("guided")
	h := g.AddNode("h")
	tt := g.AddNode("t")
	ff := g.AddNode("f")
	nd := g.Node(h)
	nd.Instrs = []ir.Instr{
		instr(ir.Const, 1, ir.NoVar, ir.NoVar, 10), // u = 10
		instr(ir.Const, 2, ir.NoVar, ir.NoVar, 20), // v = 20
		instr(ir.Const, 0, ir.NoVar, ir.NoVar, 1),  // p = 1
	}
	nd.Kind = cfg.TermBranch
	nd.Cond = 0
	g.Node(tt).Kind = cfg.TermReturn
	g.Node(tt).Ret = 1 // return u
	g.Node(ff).Kind = cfg.TermReturn
	g.Node(ff).Ret = 2 // return v
	g.AddEdge(g.Entry, h)
	g.AddEdge(h, tt)
	g.AddEdge(h, ff)
	g.AddEdge(tt, g.Exit)
	g.AddEdge(ff, g.Exit)
	if err := g.Validate(3); err != nil {
		t.Fatal(err)
	}
	return g, h
}

func TestGuidedLivenessKillsUnreachableUse(t *testing.T) {
	g, h := guidedGraph(t)

	plain := AnalyzeBoxed(g, 3, nil)
	if flags := plain.DeadStores(h); flags[0] || flags[1] {
		t.Fatalf("unguided liveness should keep both u and v live: %v", flags)
	}

	cp := constprop.AnalyzeBoxed(g, 3, true)
	guided := AnalyzeBoxed(g, 3, cp.Sol)
	flags := guided.DeadStores(h)
	if flags[0] {
		t.Error("u's store marked dead; the taken leg returns it")
	}
	if !flags[1] {
		t.Error("v's store not marked dead despite unreachable else-leg")
	}
	// Guided live sets are pointwise subsets of the unguided ones.
	for n := 0; n < g.NumNodes(); n++ {
		go1, go2 := guided.LiveOut(cfg.NodeID(n)), plain.LiveOut(cfg.NodeID(n))
		if go1 != nil && go2 != nil && !go1.SubsetOf(go2) {
			t.Errorf("node %d: guided live-out %v not subset of plain %v", n, go1, go2)
		}
	}
	// Dynamic metric: dead store weighted by node frequency.
	freq := make([]int64, g.NumNodes())
	freq[h] = 100
	static, dyn := DeadStoreCount(g, guided, freq)
	if static != 1 || dyn != 100 {
		t.Errorf("guided DeadStoreCount = (%d, %d), want (1, 100)", static, dyn)
	}
	s0, d0 := DeadStoreCount(g, plain, freq)
	if s0 != 0 || d0 != 0 {
		t.Errorf("plain DeadStoreCount = (%d, %d), want (0, 0)", s0, d0)
	}
}

func TestSetOps(t *testing.T) {
	s := NewSet(130)
	for _, v := range []ir.Var{0, 63, 64, 129} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Errorf("Count = %d, want 4", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || !s.Has(63) || !s.Has(129) {
		t.Error("Add/Remove/Has across word boundaries broken")
	}
	o := NewSet(130)
	o.Add(5)
	u := s.Union(o)
	if !u.Has(5) || !u.Has(0) || u.Count() != 4 {
		t.Errorf("Union wrong: %v", u)
	}
	if !s.SubsetOf(u) || u.SubsetOf(s) {
		t.Error("SubsetOf wrong")
	}
	if s.Has(ir.NoVar) {
		t.Error("NoVar reported present")
	}
	s.Add(ir.NoVar) // must be a no-op, not a panic
}
