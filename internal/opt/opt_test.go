package opt_test

import (
	"reflect"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/interp"
	"pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	. "pathflow/internal/opt"
	"pathflow/internal/paperex"
	"pathflow/internal/trace"
)

func TestFoldStraightLine(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	x = 3;
	y = x * 2 + 1;
	z = y - 7;
	print(z);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	sol := constprop.AnalyzeBoxed(f.G, f.NumVars(), true)
	n := Fold(f.G, sol)
	if n == 0 {
		t.Fatal("nothing folded")
	}
	// After folding, every pure instruction with a destination is a
	// Const load.
	for _, nd := range f.G.Nodes {
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if in.Op.IsPure() && in.HasDst() && in.Op != ir.Const {
				t.Errorf("unfolded instruction %s in %s", in.String(), nd.Name)
			}
		}
	}
	// The program still prints 0: z = (3*2+1) - 7.
	res, err := interp.Run(prog, interp.Options{CollectOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Output, []ir.Value{0}) {
		t.Errorf("output = %v, want [0]", res.Output)
	}
}

func TestFoldLeavesImpureAlone(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	a = input();
	b = 2 + 3;
	print(a + b);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	sol := constprop.AnalyzeBoxed(f.G, f.NumVars(), true)
	Fold(f.G, sol)
	inputs := 0
	for _, nd := range f.G.Nodes {
		for i := range nd.Instrs {
			if nd.Instrs[i].Op == ir.Input {
				inputs++
			}
		}
	}
	if inputs != 1 {
		t.Errorf("input instructions = %d, want 1 (must not fold)", inputs)
	}
}

func TestOptimizeFuncDoesNotMutateOriginal(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	x = 3;
	y = x * 2;
	print(y);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	before := f.G.String()
	optF, n := OptimizeFunc(f, PassesAll)
	if n.Total() == 0 {
		t.Fatal("nothing folded")
	}
	if f.G.String() != before {
		t.Error("OptimizeFunc mutated the original graph")
	}
	if optF.G.String() == before {
		t.Error("OptimizeFunc returned an unmodified clone")
	}
}

func TestFoldOnExampleHPGPreservesBehaviour(t *testing.T) {
	f, _, edges := paperex.Build()
	ps := paperex.Paths(edges)
	a, err := automaton.New(f.G, paperex.Recording(edges), ps[:])
	if err != nil {
		t.Fatal(err)
	}
	h, err := trace.Build(f, a)
	if err != nil {
		t.Fatal(err)
	}
	folded, n := OptimizeGraph(h.G, f.NumVars(), PassesAll)
	// x=a+b at H12..H15, i++ at H14/H15 and n=i at I17 all fold, plus
	// folded copies.
	if n.Const < 7 {
		t.Errorf("folded %d instructions, want >= 7", n.Const)
	}
	for kind := 1; kind <= 3; kind++ {
		in := paperex.RunInputs(kind)
		p1 := cfg.NewProgram()
		p1.Add(f)
		r1, err := interp.Run(p1, interp.Options{Input: &interp.SliceInput{Values: in}})
		if err != nil {
			t.Fatal(err)
		}
		p2 := cfg.NewProgram()
		p2.Add(&cfg.Func{Name: f.Name, Params: f.Params, VarNames: f.VarNames, G: folded})
		r2, err := interp.Run(p2, interp.Options{Input: &interp.SliceInput{Values: in}})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Ret != r2.Ret {
			t.Errorf("kind %d: folded HPG returns %d, original %d", kind, r2.Ret, r1.Ret)
		}
	}
}

func TestFoldSkipsUnreachedNodes(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	c = 0;
	if (c != 0) { x = 1 + 2; print(x); }
	print(c);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	sol := constprop.AnalyzeBoxed(f.G, f.NumVars(), true)
	Fold(f.G, sol)
	// The dead then-branch keeps its add: the analysis never reached it,
	// so folding it would be based on the meaningless all-⊤ environment.
	adds := 0
	for _, nd := range f.G.Nodes {
		for i := range nd.Instrs {
			if nd.Instrs[i].Op == ir.Add {
				adds++
			}
		}
	}
	if adds == 0 {
		t.Error("dead code was folded")
	}
}

// --- FoldIntervals -------------------------------------------------------

// TestFoldIntervalsCatchesRefinementSingletons: after `while (i < 10)`
// the loop counter is exactly 10 (refinement pins [10,10], but the
// constant lattice sees ⊥ after the loop-carried merge). FoldIntervals
// must fold a use of i after the loop; Fold alone must not.
func TestFoldIntervalsCatchesRefinementSingletons(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	i = 0;
	while (i < 10) {
		i = i + 1;
	}
	y = i + 5;
	print(y);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	nv := f.NumVars()

	g := f.G.Clone()
	sol := constprop.AnalyzeBoxed(g, nv, true)
	constFolds := Fold(g, sol)
	iv := intervals.AnalyzeBoxed(g, nv, true)
	ivFolds := FoldIntervals(g, iv)
	if ivFolds == 0 {
		t.Fatalf("interval folding found nothing beyond constprop (const folds = %d)", constFolds)
	}

	// Behaviour must be unchanged.
	run := func(gr *cfg.Graph) []ir.Value {
		p := cfg.NewProgram()
		p.Add(&cfg.Func{Name: f.Name, Params: f.Params, VarNames: f.VarNames, G: gr})
		r, err := interp.Run(p, interp.Options{CollectOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		return r.Output
	}
	if got, want := run(g), run(f.G); !reflect.DeepEqual(got, want) {
		t.Fatalf("interval-folded output = %v, want %v", got, want)
	}
}

// --- DeleteDead ----------------------------------------------------------

// TestDeleteDeadCascades: deleting d = c*c leaves c's store dead in
// turn; the fixpoint loop must delete the whole dead chain but keep the
// live computation intact.
func TestDeleteDeadCascades(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	a = input();
	b = a + 1;
	c = a * 2;
	d = c * c;
	print(b);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	g := f.G.Clone()
	n := DeleteDead(g, f.NumVars(), nil)
	if n < 2 {
		t.Fatalf("deleted %d instructions, want the c/d chain (>= 2)", n)
	}
	for _, nd := range g.Nodes {
		for i := range nd.Instrs {
			if nd.Instrs[i].Op == ir.Mul {
				t.Fatalf("dead multiply survived in %s", nd.Name)
			}
		}
	}
	run := func(gr *cfg.Graph) []ir.Value {
		p := cfg.NewProgram()
		p.Add(&cfg.Func{Name: f.Name, Params: f.Params, VarNames: f.VarNames, G: gr})
		r, err := interp.Run(p, interp.Options{
			Input:         &interp.SliceInput{Values: []ir.Value{41}},
			CollectOutput: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Output
	}
	if got, want := run(g), run(f.G); !reflect.DeepEqual(got, want) {
		t.Fatalf("dead-deleted output = %v, want %v", got, want)
	}
}

// TestDeleteDeadGuidedRemovesUnreachableUses: a store whose only use
// sits behind a branch constant propagation decides is dead under the
// guided analysis, but live under the plain one.
func TestDeleteDeadGuidedRemovesUnreachableUses(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	u = input();
	v = u * 3;
	p = 1;
	if (p) { print(u); } else { print(v); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	nv := f.NumVars()

	plain := f.G.Clone()
	if n := DeleteDead(plain, nv, nil); n != 0 {
		t.Fatalf("plain liveness deleted %d instructions; v's use looks live without a guide", n)
	}

	guided := f.G.Clone()
	sol := constprop.AnalyzeBoxed(guided, nv, true)
	if n := DeleteDead(guided, nv, sol.Sol); n == 0 {
		t.Fatal("guided liveness failed to delete the store feeding the dead leg")
	}
}

// TestOptimizeGraphCountsSeparate: OptimizeFunc reports the three passes
// separately and the clone leaves the original untouched.
func TestOptimizeCountsSeparate(t *testing.T) {
	prog, err := lang.Compile(`
func main() {
	x = 3;
	y = x * 2;
	i = 0;
	while (i < 4) { i = i + 1; }
	w = input() * 0;
	dead = input() + 1;
	print(y + i + w);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Main()
	before := f.G.String()
	_, c := OptimizeFunc(f, PassesAll)
	if f.G.String() != before {
		t.Fatal("OptimizeFunc mutated the original")
	}
	if c.Const == 0 {
		t.Errorf("no const folds: %+v", c)
	}
	if c.Interval == 0 {
		t.Errorf("no interval folds (loop exit i = 4 expected): %+v", c)
	}
	if c.Dead == 0 {
		t.Errorf("no dead deletions (`dead` is unused): %+v", c)
	}
	if c.Total() != c.Const+c.Interval+c.Dead {
		t.Errorf("Total inconsistent: %+v", c)
	}
}
