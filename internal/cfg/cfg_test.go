package cfg

import (
	"slices"
	"strings"
	"testing"

	"pathflow/internal/ir"
)

// diamond builds entry -> a -> {b,c} -> d -> exit.
func diamond(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	g := New("diamond")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	d := g.AddNode("d")
	g.Node(a).Kind = TermBranch
	g.Node(a).Cond = 0
	g.Node(d).Kind = TermReturn
	g.AddEdge(g.Entry, a)
	g.AddEdge(a, b)
	g.AddEdge(a, c)
	g.AddEdge(b, d)
	g.AddEdge(c, d)
	g.AddEdge(d, g.Exit)
	if err := g.Validate(1); err != nil {
		t.Fatal(err)
	}
	return g, map[string]NodeID{"a": a, "b": b, "c": c, "d": d}
}

// loopGraph builds entry -> h; h -> body -> h; h -> t -> exit.
func loopGraph(t *testing.T) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := New("loop")
	h := g.AddNode("h")
	body := g.AddNode("body")
	tail := g.AddNode("t")
	g.Node(h).Kind = TermBranch
	g.Node(h).Cond = 0
	g.Node(tail).Kind = TermReturn
	g.AddEdge(g.Entry, h)
	g.AddEdge(h, body) // taken: loop
	g.AddEdge(h, tail)
	g.AddEdge(body, h)
	g.AddEdge(tail, g.Exit)
	if err := g.Validate(1); err != nil {
		t.Fatal(err)
	}
	return g, h, body
}

// irreducibleGraph builds the classic two-entry loop: entry branches to a
// and b, which branch to each other and to exit.
func irreducibleGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("irreducible")
	e0 := g.AddNode("e0")
	a := g.AddNode("a")
	b := g.AddNode("b")
	x := g.AddNode("x")
	g.Node(e0).Kind = TermBranch
	g.Node(e0).Cond = 0
	g.Node(a).Kind = TermBranch
	g.Node(a).Cond = 0
	g.Node(b).Kind = TermBranch
	g.Node(b).Cond = 0
	g.Node(x).Kind = TermReturn
	g.AddEdge(g.Entry, e0)
	g.AddEdge(e0, a)
	g.AddEdge(e0, b)
	g.AddEdge(a, b)
	g.AddEdge(a, x)
	g.AddEdge(b, a)
	g.AddEdge(b, x)
	g.AddEdge(x, g.Exit)
	if err := g.Validate(1); err != nil {
		t.Fatal(err)
	}
	return g
}

// retreating lists the retreating edges of a traversal.
func retreating(dfs *DFS) []EdgeID {
	var out []EdgeID
	for e, r := range dfs.Retreating {
		if r {
			out = append(out, EdgeID(e))
		}
	}
	return out
}

func TestDFSOnDiamond(t *testing.T) {
	g, n := diamond(t)
	dfs := g.DepthFirst()
	if r := retreating(dfs); len(r) != 0 {
		t.Errorf("retreating edges = %d, want 0", len(r))
	}
	if dfs.NumReachable() != g.NumNodes() {
		t.Errorf("reachable = %d, want all %d", dfs.NumReachable(), g.NumNodes())
	}
	// RPO: every non-retreating edge goes from lower to higher RPO.
	for _, e := range g.Edges {
		if dfs.RPO[e.From] >= dfs.RPO[e.To] {
			t.Errorf("edge %d->%d violates RPO ordering", e.From, e.To)
		}
	}
	if dfs.RPO[g.Entry] != 0 {
		t.Errorf("entry RPO = %d, want 0", dfs.RPO[g.Entry])
	}
	_ = n
}

func TestDFSOnLoop(t *testing.T) {
	g, h, body := loopGraph(t)
	r := retreating(g.DepthFirst())
	if len(r) != 1 {
		t.Fatalf("retreating = %d, want 1", len(r))
	}
	for _, e := range r {
		if g.Edge(e).From != body || g.Edge(e).To != h {
			t.Errorf("retreating edge is %d->%d, want body->h", g.Edge(e).From, g.Edge(e).To)
		}
	}
}

func TestUnreachableNodes(t *testing.T) {
	g := New("unreach")
	a := g.AddNode("a")
	dead := g.AddNode("dead")
	g.Node(a).Kind = TermReturn
	g.Node(dead).Kind = TermReturn
	g.AddEdge(g.Entry, a)
	g.AddEdge(a, g.Exit)
	g.AddEdge(dead, g.Exit)
	if err := g.Validate(0); err != nil {
		t.Fatal(err)
	}
	dfs := g.DepthFirst()
	if dfs.Reachable(dead) {
		t.Error("dead node reported reachable")
	}
	if dfs.NumReachable() != 3 {
		t.Errorf("reachable = %d, want 3", dfs.NumReachable())
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g, n := diamond(t)
	dom := g.ComputeDominators()
	if !dom.Dominates(n["a"], n["d"]) {
		t.Error("a must dominate d")
	}
	if dom.Dominates(n["b"], n["d"]) || dom.Dominates(n["c"], n["d"]) {
		t.Error("neither branch leg dominates the join")
	}
	if dom.Idom[n["d"]] != n["a"] {
		t.Errorf("idom(d) = %d, want a", dom.Idom[n["d"]])
	}
	if !dom.Dominates(g.Entry, n["d"]) {
		t.Error("entry dominates everything")
	}
	if dom.Dominates(n["d"], n["a"]) {
		t.Error("dominance is antisymmetric")
	}
}

func TestBackEdgesAndLoops(t *testing.T) {
	g, h, body := loopGraph(t)
	back := g.BackEdges()
	if len(back) != 1 {
		t.Fatalf("back edges = %d, want 1", len(back))
	}
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	if loops[0].Head != h {
		t.Errorf("loop head = %d, want %d", loops[0].Head, h)
	}
	if len(loops[0].Body) != 2 {
		t.Errorf("loop body = %v, want {h, body}", loops[0].Body)
	}
	_ = body
}

func TestReducibility(t *testing.T) {
	g, _, _ := loopGraph(t)
	if !g.Reducible() {
		t.Error("natural loop graph must be reducible")
	}
	ir := irreducibleGraph(t)
	if ir.Reducible() {
		t.Error("two-entry loop must be irreducible")
	}
	// The irreducible graph still has retreating edges but they are not
	// back edges.
	dfs := ir.DepthFirst()
	back := ir.BackEdges()
	found := false
	for _, e := range retreating(dfs) {
		if !back[e] {
			found = true
		}
	}
	if !found {
		t.Error("expected a retreating edge that is not a back edge")
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("branch arity", func(t *testing.T) {
		g := New("bad")
		a := g.AddNode("a")
		g.Node(a).Kind = TermBranch
		g.Node(a).Cond = 0
		g.AddEdge(g.Entry, a)
		g.AddEdge(a, g.Exit)
		if err := g.Validate(1); err == nil || !strings.Contains(err.Error(), "out-edges") {
			t.Errorf("err = %v", err)
		}
		if err := g.ValidateStructure(1); err == nil || !strings.Contains(err.Error(), "out-edges") {
			t.Errorf("ValidateStructure err = %v", err)
		}
	})
	t.Run("return not to exit", func(t *testing.T) {
		g := New("bad")
		a := g.AddNode("a")
		b := g.AddNode("b")
		g.Node(a).Kind = TermReturn
		g.Node(b).Kind = TermReturn
		g.AddEdge(g.Entry, a)
		g.AddEdge(a, b) // wrong: return must target exit
		g.AddEdge(b, g.Exit)
		if err := g.Validate(1); err == nil || !strings.Contains(err.Error(), "exit") {
			t.Errorf("err = %v", err)
		}
		if err := g.ValidateStructure(1); err == nil || !strings.Contains(err.Error(), "exit") {
			t.Errorf("ValidateStructure err = %v", err)
		}
	})
	t.Run("branch bad cond", func(t *testing.T) {
		g := New("bad")
		a := g.AddNode("a")
		b := g.AddNode("b")
		g.Node(a).Kind = TermBranch
		g.Node(a).Cond = 5 // out of range for numVars=1
		g.Node(b).Kind = TermReturn
		g.AddEdge(g.Entry, a)
		g.AddEdge(a, b)
		g.AddEdge(a, b)
		g.AddEdge(b, g.Exit)
		if err := g.Validate(1); err == nil || !strings.Contains(err.Error(), "condition") {
			t.Errorf("err = %v", err)
		}
		if err := g.ValidateStructure(1); err == nil || !strings.Contains(err.Error(), "condition") {
			t.Errorf("ValidateStructure err = %v", err)
		}
	})
	t.Run("bad instr", func(t *testing.T) {
		g := New("bad")
		a := g.AddNode("a")
		g.Node(a).Kind = TermReturn
		g.Node(a).Instrs = []ir.Instr{{Op: ir.Add, Dst: 0, A: 1, B: 99}}
		g.AddEdge(g.Entry, a)
		g.AddEdge(a, g.Exit)
		if err := g.Validate(2); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("err = %v", err)
		}
		// The instructions are left to Validate on the graph that owns
		// them.
		if err := g.ValidateStructure(2); err != nil {
			t.Errorf("ValidateStructure err = %v, want nil", err)
		}
	})
}

// TestFromSlabsMatchesAddEdge: a graph built from slabs has the nodes,
// edges, slots and in/out lists that AddNode and AddEdge give the same
// nodes and edges, and its lists are capped, so appending to one cannot
// overwrite its neighbour in the arena.
func TestFromSlabsMatchesAddEdge(t *testing.T) {
	d, _ := diamond(t)
	l, _, _ := loopGraph(t)
	for _, g := range []*Graph{d, l, irreducibleGraph(t)} {
		nodes := make([]Node, g.NumNodes())
		for i, nd := range g.Nodes {
			nodes[i] = Node{Name: nd.Name, Instrs: nd.Instrs, Kind: nd.Kind, Cond: nd.Cond, Ret: nd.Ret}
		}
		edges := make([]Edge, g.NumEdges())
		for i, e := range g.Edges {
			edges[i] = Edge{From: e.From, To: e.To}
		}
		s := FromSlabs(g.Name, nodes, edges)
		s.Entry, s.Exit = g.Entry, g.Exit
		if err := s.Validate(1); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if got, want := s.String(), g.String(); got != want {
			t.Errorf("%s: from slabs\n%s\nwant\n%s", g.Name, got, want)
		}
		for _, nd := range s.Nodes {
			nd.Out = append(nd.Out, NoEdge)
			nd.In = append(nd.In, NoEdge)
		}
		for i, nd := range g.Nodes {
			got := s.Nodes[i]
			if got.ID != nd.ID || !slices.Equal(got.Out[:len(got.Out)-1], nd.Out) || !slices.Equal(got.In[:len(got.In)-1], nd.In) {
				t.Errorf("%s: node %d is %d out %v in %v, want %d out %v in %v",
					g.Name, i, got.ID, got.Out, got.In, nd.ID, nd.Out, nd.In)
			}
		}
		for i, e := range g.Edges {
			if *s.Edges[i] != *e {
				t.Errorf("%s: edge %d is %+v, want %+v", g.Name, i, *s.Edges[i], *e)
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, n := diamond(t)
	g.Node(n["b"]).Instrs = []ir.Instr{{Op: ir.Const, Dst: 0, A: ir.NoVar, B: ir.NoVar, K: 1}}
	c := g.Clone()
	if err := c.Validate(1); err != nil {
		t.Fatal(err)
	}
	// Mutating the clone must not affect the original.
	c.Node(n["b"]).Instrs[0].K = 99
	c.Node(n["b"]).Out = nil
	if g.Node(n["b"]).Instrs[0].K != 1 {
		t.Error("clone shares instruction storage")
	}
	if len(g.Node(n["b"]).Out) == 0 {
		t.Error("clone shares edge lists")
	}
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Error("clone size mismatch")
	}
}

func TestProgramHelpers(t *testing.T) {
	p := NewProgram()
	if p.Main() != nil {
		t.Error("empty program has a main")
	}
	g1 := New("f")
	a := g1.AddNode("a")
	g1.Node(a).Kind = TermReturn
	g1.AddEdge(g1.Entry, a)
	g1.AddEdge(a, g1.Exit)
	f := &Func{Name: "f", G: g1, VarNames: []string{"x"}}
	p.Add(f)
	if p.Main() != f {
		t.Error("first function should be main fallback")
	}
	g2 := New("main")
	b := g2.AddNode("b")
	g2.Node(b).Kind = TermReturn
	g2.AddEdge(g2.Entry, b)
	g2.AddEdge(b, g2.Exit)
	m := &Func{Name: "main", G: g2}
	p.Add(m)
	if p.Main() != m {
		t.Error("main function not preferred")
	}
	if p.NumNodes() != 6 {
		t.Errorf("NumNodes = %d, want 6", p.NumNodes())
	}
	if f.VarName(0) != "x" || f.VarName(ir.NoVar) != "v-1" {
		t.Errorf("VarName broken: %q %q", f.VarName(0), f.VarName(ir.NoVar))
	}
	// Re-adding a function does not duplicate the order entry.
	p.Add(m)
	if len(p.Order) != 2 {
		t.Errorf("Order = %v", p.Order)
	}
}

func TestSuccAndOutEdge(t *testing.T) {
	g, n := diamond(t)
	if g.Succ(n["a"], 0) != n["b"] || g.Succ(n["a"], 1) != n["c"] {
		t.Error("Succ slots wrong")
	}
	if g.Succ(n["a"], 2) != NoNode {
		t.Error("out-of-range Succ should be NoNode")
	}
	if g.OutEdge(n["a"], 2) != NoEdge {
		t.Error("out-of-range OutEdge should be NoEdge")
	}
}

func TestDotOutput(t *testing.T) {
	g, n := diamond(t)
	g.Node(n["b"]).Instrs = []ir.Instr{{Op: ir.Const, Dst: 0, A: ir.NoVar, B: ir.NoVar, K: 3}}
	dot := g.Dot(DotOptions{
		Instrs:    true,
		VarNames:  []string{"x"},
		Recording: map[EdgeID]bool{0: true},
	})
	for _, want := range []string{"digraph", "style=dashed", "x = const 3", "label=\"T\"", "label=\"F\""} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q", want)
		}
	}
}

func TestGraphString(t *testing.T) {
	g, _ := diamond(t)
	s := g.String()
	for _, want := range []string{"graph diamond", "branch -> b c", "halt"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
}

func TestSortedEdgeIDs(t *testing.T) {
	ids := SortedEdgeIDs(map[EdgeID]bool{5: true, 1: true, 3: true})
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 5 {
		t.Errorf("SortedEdgeIDs = %v", ids)
	}
}

func TestNumInstrs(t *testing.T) {
	g, n := diamond(t)
	g.Node(n["b"]).Instrs = []ir.Instr{{Op: ir.Nop}, {Op: ir.Nop}}
	g.Node(n["c"]).Instrs = []ir.Instr{{Op: ir.Nop}}
	if got := g.NumInstrs(); got != 3 {
		t.Errorf("NumInstrs = %d, want 3", got)
	}
}
