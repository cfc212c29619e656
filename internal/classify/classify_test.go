package classify_test

import (
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	. "pathflow/internal/classify"
	"pathflow/internal/constprop"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
	"pathflow/internal/trace"
)

// qualify runs profile → automaton → trace for fn with all executed paths
// hot, returning the HPG and its solution.
func qualify(t *testing.T, fn *cfg.Func, pr *bl.Profile, ca float64) (*trace.HPG, *constprop.Result) {
	t.Helper()
	hot := profile.SelectHot(pr, fn.G, ca)
	a, err := automaton.New(fn.G, pr.R, hot)
	if err != nil {
		t.Fatal(err)
	}
	h, err := trace.Build(fn, a)
	if err != nil {
		t.Fatal(err)
	}
	return h, constprop.AnalyzeBoxed(h.G, fn.NumVars(), true)
}

func profileOf(t *testing.T, prog *cfg.Program, inputs []ir.Value) *bl.Profile {
	t.Helper()
	pp, _, err := bl.ProfileProgram(prog, interp.Options{Input: &interp.SliceInput{Values: inputs}})
	if err != nil {
		t.Fatal(err)
	}
	return pp.Funcs[prog.Main().Name]
}

func classifyExample(t *testing.T, ca float64) (*Report, *trace.HPG) {
	t.Helper()
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	h, hsol := qualify(t, f, pr, ca)
	rep := Classify(Input{
		Fn:              f,
		EvalProfile:     pr,
		OrigSol:         constprop.AnalyzeBoxed(f.G, f.NumVars(), true),
		Overlay:         h,
		OverlaySol:      hsol,
		OverlayOrigNode: func(n cfg.NodeID) cfg.NodeID { return h.OrigNode[n] },
	})
	return rep, h
}

func TestClassifyTaxonomyOnExample(t *testing.T) {
	rep, _ := classifyExample(t, 1.0)
	// Static: 7 Local (a=2, i=0, b=4, b=3, c=5, b=2, one=1), 3
	// Unknowable (the three input() reads), 3 Partial (x=a+b, i=i+1,
	// n=i — each constant on hot duplicates and ⊥ on the ε duplicates).
	if got := rep.Static[Local]; got != 7 {
		t.Errorf("static Local = %d, want 7", got)
	}
	if got := rep.Static[Unknowable]; got != 3 {
		t.Errorf("static Unknowable = %d, want 3", got)
	}
	if got := rep.Static[Partial]; got != 3 {
		t.Errorf("static Partial = %d, want 3", got)
	}
	for _, c := range []Category{Iterative, Identical, Variable, Dynamic} {
		if rep.Static[c] != 0 {
			t.Errorf("static %v = %d, want 0", c, rep.Static[c])
		}
	}
	// Dynamic totals: profile covers 2140 instructions.
	if rep.TotalDyn != 2140 {
		t.Errorf("TotalDyn = %d, want 2140", rep.TotalDyn)
	}
	// Dynamic Partial weight: x (freq H = 230) + i (230) + n (freq I =
	// 100) = 560.
	if got := rep.Dyn[Partial]; got != 560 {
		t.Errorf("dyn Partial = %d, want 560", got)
	}
}

func TestClassifyWithoutOverlay(t *testing.T) {
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	rep := Classify(Input{
		Fn:          f,
		EvalProfile: pr,
		OrigSol:     constprop.AnalyzeBoxed(f.G, f.NumVars(), true),
	})
	// Without qualification nothing is Partial; x, i, n become Dynamic
	// (they are not always-tainted: b and the constants are clean).
	if rep.Static[Partial] != 0 || rep.Static[Identical] != 0 {
		t.Errorf("qualified categories populated without overlay: %+v", rep.Static)
	}
	if got := rep.Static[Dynamic]; got != 3 {
		t.Errorf("static Dynamic = %d, want 3", got)
	}
}

// TestClassifyIdentical uses the classic non-distributivity example: both
// branch legs produce a+b = 3, which meet-over-paths sees but iterative
// Wegman-Zadek does not. Path qualification recovers it with the same
// value at every duplicate: the Identical category.
func TestClassifyIdentical(t *testing.T) {
	src := `
func main() {
	t = input();
	if (t > 0) { a = 1; b = 2; } else { a = 2; b = 1; }
	x = a + b;
	print(x);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	// Run both legs so both paths are in the profile.
	pr := profileOf(t, prog, []ir.Value{1, 0})
	h, hsol := qualify(t, fn, pr, 1.0)
	rep := Classify(Input{
		Fn:              fn,
		EvalProfile:     pr,
		OrigSol:         constprop.AnalyzeBoxed(fn.G, fn.NumVars(), true),
		Overlay:         h,
		OverlaySol:      hsol,
		OverlayOrigNode: func(n cfg.NodeID) cfg.NodeID { return h.OrigNode[n] },
	})
	// x = a + b is Identical (3 at every duplicate); the lowering's
	// copies of a and b are Variable (1/2 at one duplicate, 2/1 at the
	// other).
	if rep.Static[Identical] == 0 {
		t.Errorf("want Identical instructions, got %+v", rep.Static)
	}
	if rep.Static[Variable] != 2 {
		t.Errorf("Variable = %d, want 2 (the copies of a and b)", rep.Static[Variable])
	}
}

// TestClassifyVariable: the legs produce different constants, so the
// duplicated sites hold different values — only duplication reveals them.
func TestClassifyVariable(t *testing.T) {
	src := `
func main() {
	t = input();
	if (t > 0) { b = 10; } else { b = 20; }
	x = b * 2;
	print(x);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	pr := profileOf(t, prog, []ir.Value{1, 0})
	h, hsol := qualify(t, fn, pr, 1.0)
	rep := Classify(Input{
		Fn:              fn,
		EvalProfile:     pr,
		OrigSol:         constprop.AnalyzeBoxed(fn.G, fn.NumVars(), true),
		Overlay:         h,
		OverlaySol:      hsol,
		OverlayOrigNode: func(n cfg.NodeID) cfg.NodeID { return h.OrigNode[n] },
	})
	if rep.Static[Variable] == 0 {
		t.Errorf("want Variable instructions, got %+v", rep.Static)
	}
}

func TestTaint(t *testing.T) {
	src := `
func main() {
	a = input();
	b = 3;
	c = a + b;
	d = b * 2;
	t = input();
	if (t > 0) { e = input(); } else { e = 7; }
	f = e + 1;
	print(c + d + f);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	taint := SolveTaint(fn.G, fn.NumVars())
	varIdx := func(name string) ir.Var {
		for i, n := range fn.VarNames {
			if n == name {
				return ir.Var(i)
			}
		}
		t.Fatalf("no var %s", name)
		return ir.NoVar
	}
	exit := fn.G.Exit
	cases := []struct {
		name string
		want bool
	}{
		{"a", true},  //直接 from input
		{"b", false}, // constant
		{"c", true},  // input + const
		{"d", false}, // const * const
		{"e", false}, // tainted on one path only: maybe-clean
		{"f", false}, // derives from e
	}
	for _, tc := range cases {
		if got := taint.TaintedAt(exit, varIdx(tc.name)); got != tc.want {
			t.Errorf("tainted(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSiteConstDynOnExample(t *testing.T) {
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	h, hsol := qualify(t, f, pr, 1.0)
	tp, err := profile.Translate(pr, f.G, h)
	if err != nil {
		t.Fatal(err)
	}
	freq := profile.NodeFrequencies(tp, h.G)
	// Paper §5 weights: 140 + 100 + 70 + 60 + 30 = 400 dynamic
	// non-local constants on the HPG.
	got := SiteConstDyn(h.G, hsol, freq, true)
	if got != 400 {
		t.Errorf("HPG non-local const dyn = %d, want 400", got)
	}
	// Baseline on the original graph: zero non-local constants.
	origSol := constprop.AnalyzeBoxed(f.G, f.NumVars(), true)
	ofreq := profile.NodeFrequencies(pr, f.G)
	if base := SiteConstDyn(f.G, origSol, ofreq, true); base != 0 {
		t.Errorf("original non-local const dyn = %d, want 0", base)
	}
	// Including local constants: locals execute A(2 consts × 100) +
	// C(1 × 70) + D(1 × 160) + F(1 × 130) + G(1 × 100) + H(one, 1 × 230)
	// = 200+70+160+130+100+230 = 890; plus the 400 non-local.
	withLocal := SiteConstDyn(h.G, hsol, freq, false)
	if withLocal != 890+400 {
		t.Errorf("HPG const dyn = %d, want %d", withLocal, 890+400)
	}
}

func TestBlockConstWeightsMatchReduceWeights(t *testing.T) {
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	h, hsol := qualify(t, f, pr, 1.0)
	tp, err := profile.Translate(pr, f.G, h)
	if err != nil {
		t.Fatal(err)
	}
	freq := profile.NodeFrequencies(tp, h.G)
	weights := BlockConstWeights(h.G, hsol, freq)
	byName := map[string]int64{}
	for _, nd := range h.G.Nodes {
		byName[nd.Name] = weights[nd.ID]
	}
	want := map[string]int64{"H12": 30, "H13": 100, "H14": 140, "H15": 60, "I17": 70}
	for name, w := range want {
		if byName[name] != w {
			t.Errorf("weight[%s] = %d, want %d", name, byName[name], w)
		}
	}
}

func TestCumulativeDistribution(t *testing.T) {
	pts := CumulativeDistribution([]int64{0, 30, 100, 140, 60, 70, 0})
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5 (zero-weight blocks omitted)", len(pts))
	}
	if pts[0].Blocks != 1 || pts[0].Fraction != 140.0/400 {
		t.Errorf("first point = %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Fraction != 1.0 {
		t.Errorf("last fraction = %v, want 1", last.Fraction)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Fraction < pts[i-1].Fraction {
			t.Error("cumulative fractions must be non-decreasing")
		}
	}
	if got := CumulativeDistribution(nil); len(got) != 0 {
		t.Error("empty weights should yield no points")
	}
}

func TestReportAddAndString(t *testing.T) {
	a := &Report{TotalDyn: 10}
	a.Dyn[Local] = 4
	a.Static[Local] = 1
	b := &Report{TotalDyn: 20}
	b.Dyn[Local] = 6
	a.Add(b)
	if a.TotalDyn != 30 || a.Dyn[Local] != 10 {
		t.Errorf("Add: %+v", a)
	}
	if a.Frac(Local) != 10.0/30 {
		t.Errorf("Frac = %v", a.Frac(Local))
	}
	if s := a.String(); len(s) == 0 {
		t.Error("empty String")
	}
	if (&Report{}).Frac(Local) != 0 {
		t.Error("Frac on empty report should be 0")
	}
}
