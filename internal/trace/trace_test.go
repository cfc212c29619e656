package trace_test

import (
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
	. "pathflow/internal/trace"
)

// buildExampleHPG traces the running example against all four profile
// paths, reproducing the paper's Figure 5.
func buildExampleHPG(t *testing.T) (*cfg.Func, paperex.Nodes, map[string]cfg.EdgeID, *HPG) {
	t.Helper()
	f, nodes, edges := paperex.Build()
	R := paperex.Recording(edges)
	ps := paperex.Paths(edges)
	a, err := automaton.New(f.G, R, ps[:])
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(f, a)
	if err != nil {
		t.Fatal(err)
	}
	// Build checks only the structure; the blocks are f's.
	if err := h.G.Validate(f.NumVars()); err != nil {
		t.Fatal(err)
	}
	return f, nodes, edges, h
}

func TestExampleHPGShape(t *testing.T) {
	f, nodes, _, h := buildExampleHPG(t)
	// Figure 5: Entryε, A0, B0, B1, Cε, C3, D2, D4, Eε, E5, E6, E7, Fε,
	// F8, F10, F11, Gε, G9, Hε, H12, H13, H14, H15, Iε, I16, I17, Exit0.
	if got := h.G.NumNodes(); got != 27 {
		t.Errorf("HPG nodes = %d, want 27", got)
	}
	dups := h.Duplicates()
	want := map[cfg.NodeID]int{
		nodes.Entry: 1, nodes.A: 1, nodes.B: 2, nodes.C: 2, nodes.D: 2,
		nodes.E: 4, nodes.F: 4, nodes.G: 2, nodes.H: 5, nodes.I: 3, nodes.Exit: 1,
	}
	for v, n := range want {
		if dups[v] != n {
			t.Errorf("duplicates of %s = %d, want %d", f.G.Node(v).Name, dups[v], n)
		}
	}
	// Node names match the paper's labels.
	byName := map[string]bool{}
	for _, nd := range h.G.Nodes {
		byName[nd.Name] = true
	}
	for _, name := range []string{
		"entryε", "A0", "B0", "B1", "Cε", "C3", "D2", "D4",
		"Eε", "E5", "E6", "E7", "Fε", "F8", "F10", "F11",
		"Gε", "G9", "Hε", "H12", "H13", "H14", "H15",
		"Iε", "I16", "I17", "exit0",
	} {
		if !byName[name] {
			t.Errorf("HPG is missing vertex %s (have %v)", name, byName)
		}
	}
}

func TestExampleHPGRecordingEdges(t *testing.T) {
	_, nodes, edges, h := buildExampleHPG(t)
	// Entry→A0 (1), five H*→B0 (5), three I*→Exit0 (3).
	if got := len(h.Recording); got != 9 {
		t.Errorf("HPG recording edges = %d, want 9", got)
	}
	for he := range h.Recording {
		oe := h.OrigEdge[he]
		if !paperex.Recording(edges)[oe] {
			t.Errorf("HPG recording edge %d maps to non-recording original edge %d", he, oe)
		}
		// Every recording edge targets a q• node (Lemma 2's anchor).
		to := h.G.Edge(he).To
		if h.State[to] != automaton.StateDot {
			t.Errorf("recording edge %d targets state %v, want q•", he, h.State[to])
		}
	}
	// All H→B edges land on B0 specifically.
	b0, ok := h.NodeFor(nodes.B, automaton.StateDot)
	if !ok {
		t.Fatal("B0 missing")
	}
	for he := range h.Recording {
		if h.OrigEdge[he] == edges["H->B"] && h.G.Edge(he).To != b0 {
			t.Errorf("H→B duplicate targets %d, want B0=%d", h.G.Edge(he).To, b0)
		}
	}
}

func TestExampleHPGIsIrreducible(t *testing.T) {
	f, _, _, h := buildExampleHPG(t)
	if !f.G.Reducible() {
		t.Fatal("original example graph should be reducible")
	}
	// Paper §4.1: the traced example is irreducible — e.g. (H15, B0) is
	// a retreating edge but not a back edge, since B0 does not dominate
	// H15.
	if h.G.Reducible() {
		t.Error("example HPG should be irreducible")
	}
}

func TestHPGStructuralInvariant(t *testing.T) {
	f, _, _, h := buildExampleHPG(t)
	// Definition 6: edge ((v0,q0),(v1,q1)) exists iff (v0,v1) ∈ E and
	// A steps q0 to q1 on (v0,v1). Check the forward direction for every
	// HPG edge and slot correspondence with the original graph.
	for _, he := range h.G.Edges {
		oe := f.G.Edge(h.OrigEdge[he.ID])
		from, to := he.From, he.To
		if h.OrigNode[from] != oe.From || h.OrigNode[to] != oe.To {
			t.Fatalf("HPG edge %d endpoints don't project to original edge %d", he.ID, oe.ID)
		}
		if got := h.Auto.Step(h.State[from], oe.ID); got != h.State[to] {
			t.Fatalf("HPG edge %d: automaton steps to %d, node says %d", he.ID, got, h.State[to])
		}
		if he.Slot != oe.Slot {
			t.Fatalf("HPG edge %d slot %d != original slot %d", he.ID, he.Slot, oe.Slot)
		}
	}
	// Every HPG node has the full out-edge fan of its original vertex.
	for _, nd := range h.G.Nodes {
		ov := f.G.Node(h.OrigNode[nd.ID])
		if len(nd.Out) != len(ov.Out) {
			t.Fatalf("HPG node %s has %d out-edges, original %s has %d",
				nd.Name, len(nd.Out), ov.Name, len(ov.Out))
		}
	}
}

func TestHPGWithEmptyAutomaton(t *testing.T) {
	// With no hot paths the HPG vertices are (v, qε) and (v, q•) only;
	// the structure collapses back to something execution-equivalent to
	// the original graph.
	f, _, edges := paperex.Build()
	a, err := automaton.New(f.G, paperex.Recording(edges), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(f, a)
	if err != nil {
		t.Fatal(err)
	}
	// Entryε, A0 (recording target), Bε (via A→B) and B0 (via the
	// recording edge H→B), then Cε, Dε, Eε, Fε, Gε, Hε, Iε, Exit0: even
	// with no keywords, q• still distinguishes recording-edge targets.
	if got := h.G.NumNodes(); got != 12 {
		t.Errorf("HPG nodes with empty automaton = %d, want 12", got)
	}
}

// TestHPGExecutionEquivalence runs the original program and its HPG on
// identical inputs: outputs, return values and instruction counts must
// coincide, because tracing only duplicates vertices.
func TestHPGExecutionEquivalence(t *testing.T) {
	f, _, edges := paperex.Build()
	R := paperex.Recording(edges)
	ps := paperex.Paths(edges)
	a, err := automaton.New(f.G, R, ps[:2]) // partial hot set
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(f, a)
	if err != nil {
		t.Fatal(err)
	}
	for kind := 1; kind <= 3; kind++ {
		in := paperex.RunInputs(kind)
		orig := cfg.NewProgram()
		orig.Add(f)
		r1, err := interp.Run(orig, interp.Options{Input: &interp.SliceInput{Values: in}, CollectOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		traced := cfg.NewProgram()
		traced.Add(h.Func())
		r2, err := interp.Run(traced, interp.Options{Input: &interp.SliceInput{Values: in}, CollectOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Ret != r2.Ret || r1.DynInstrs != r2.DynInstrs || r1.Steps != r2.Steps {
			t.Errorf("kind %d: original (ret=%d,di=%d,steps=%d) != HPG (ret=%d,di=%d,steps=%d)",
				kind, r1.Ret, r1.DynInstrs, r1.Steps, r2.Ret, r2.DynInstrs, r2.Steps)
		}
	}
}

// TestRecordingEdgesTargetUniqueDotNode is the anchor of Lemma 2: for
// each original vertex v, every recording edge into v lands on the single
// HPG node (v, q•) — which is why the translated profile is unique. The
// paper notes this "would fail if tracing were allowed to unroll loops".
func TestRecordingEdgesTargetUniqueDotNode(t *testing.T) {
	_, _, _, h := buildExampleHPG(t)
	targets := map[cfg.NodeID]cfg.NodeID{} // orig vertex -> HPG target
	for he := range h.Recording {
		to := h.G.Edge(he).To
		ov := h.OrigNode[to]
		if prev, ok := targets[ov]; ok && prev != to {
			t.Fatalf("recording edges into vertex %d target two HPG nodes (%d and %d)", ov, prev, to)
		}
		targets[ov] = to
		if h.State[to] != automaton.StateDot {
			t.Fatalf("recording edge targets state %v, want q•", h.State[to])
		}
	}
}

// TestHPGNamesForUnnamedNodes: nodes without diagnostic names get nN
// labels plus the state suffix.
func TestHPGNamesForUnnamedNodes(t *testing.T) {
	g := cfg.New("anon")
	a := g.AddNode("") // unnamed
	g.Node(a).Kind = cfg.TermReturn
	e1 := g.AddEdge(g.Entry, a)
	e2 := g.AddEdge(a, g.Exit)
	fn := &cfg.Func{Name: "anon", G: g}
	R := map[cfg.EdgeID]bool{e1: true, e2: true}
	a2, err := automaton.New(g, R, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(fn, a2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, nd := range h.G.Nodes {
		if nd.Name == "n2"+"0" { // node 2 at state q•(displayed 0)
			found = true
		}
	}
	if !found {
		var names []string
		for _, nd := range h.G.Nodes {
			names = append(names, nd.Name)
		}
		t.Errorf("expected synthesized name n20, have %v", names)
	}
}

// TestHPGSizeBound: |HPG| ≤ |V| × |Q| (Definition 6's universe).
func TestHPGSizeBound(t *testing.T) {
	f, _, _, h := buildExampleHPG(t)
	bound := f.G.NumNodes() * h.Auto.NumStates()
	if h.G.NumNodes() > bound {
		t.Errorf("HPG has %d nodes, exceeding |V|×|Q| = %d", h.G.NumNodes(), bound)
	}
}

func TestHPGOnLangProgram(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	i = 0;
	s = 0;
	while (i < 40) {
		if (i % 4 == 0) { s = s + 3; } else { s = s + 1; }
		i = i + 1;
	}
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	R := bl.RecordingEdges(fn.G)
	pp, _, err := bl.ProfileProgram(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var hot []bl.Path
	for _, e := range pp.Funcs["main"].Entries {
		hot = append(hot, e.Path)
	}
	a, err := automaton.New(fn.G, R, hot)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(fn, a)
	if err != nil {
		t.Fatal(err)
	}
	if h.G.NumNodes() <= fn.G.NumNodes() {
		t.Errorf("HPG (%d nodes) should be larger than original (%d nodes)",
			h.G.NumNodes(), fn.G.NumNodes())
	}
	if h.Growth() <= 0 {
		t.Errorf("Growth = %f, want > 0", h.Growth())
	}
	// Execution equivalence on the lang program.
	p2 := cfg.NewProgram()
	p2.Add(h.Func())
	r1, err := interp.Run(prog, interp.Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := interp.Run(p2, interp.Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Output) != len(r2.Output) || r1.Output[0] != r2.Output[0] {
		t.Errorf("outputs differ: %v vs %v", r1.Output, r2.Output)
	}
}
