package engine_test

import (
	"reflect"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/opt"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
)

// The pipeline end to end on the serial engine: the paper's running
// example function by function, and the multi-function fixture through
// profiling, analysis and the optimizer.

func exampleFuncResult(t *testing.T, o engine.Options) *engine.FuncResult {
	t.Helper()
	f, _, edges := paperex.Build()
	fr, err := engine.Serial().AnalyzeFunc(ctx, f, paperex.Profile(edges), o)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

func TestAnalyzeFuncFullPipeline(t *testing.T) {
	fr := exampleFuncResult(t, engine.Options{CA: 1.0, CR: 0.6})
	if !fr.Qualified() {
		t.Fatal("pipeline did not qualify")
	}
	if len(fr.Hot) != 4 {
		t.Errorf("hot paths = %d, want 4", len(fr.Hot))
	}
	if fr.Auto.NumStates() != 19 {
		t.Errorf("automaton states = %d, want 19", fr.Auto.NumStates())
	}
	if fr.HPG.G.NumNodes() != 27 {
		t.Errorf("HPG nodes = %d, want 27", fr.HPG.G.NumNodes())
	}
	if fr.Red.G.NumNodes() != 20 {
		t.Errorf("rHPG nodes = %d, want 20", fr.Red.G.NumNodes())
	}
	if fr.FinalGraph() != fr.Red.G {
		t.Error("FinalGraph should be the reduced graph")
	}
	if fr.FinalSol() != fr.RedSol {
		t.Error("FinalSol should be the reduced solution")
	}
	if fr.FinalOverlay() == nil {
		t.Error("FinalOverlay should be non-nil")
	}
	if fr.Metrics.Qualification() <= 0 {
		t.Error("timings not recorded")
	}
}

func TestAnalyzeFuncBaseline(t *testing.T) {
	fr := exampleFuncResult(t, engine.Options{CA: 0, CR: 0.95})
	if fr.Qualified() {
		t.Fatal("CA=0 must not qualify")
	}
	if fr.FinalGraph() != fr.Fn.G {
		t.Error("FinalGraph should be the original graph")
	}
	if fr.FinalOverlay() != nil {
		t.Error("FinalOverlay should be nil at CA=0")
	}
	if fr.FinalOrigNode(3) != 3 {
		t.Error("FinalOrigNode should be identity at CA=0")
	}
	// TranslateEval is the identity at CA=0.
	_, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	got, err := fr.TranslateEval(pr)
	if err != nil {
		t.Fatal(err)
	}
	if got != pr {
		t.Error("TranslateEval should return the input profile at CA=0")
	}
}

func TestAnalyzeFuncNilProfile(t *testing.T) {
	f, _, _ := paperex.Build()
	fr, err := engine.Serial().AnalyzeFunc(ctx, f, nil, engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Qualified() {
		t.Error("unprofiled function must not qualify")
	}
	if fr.OrigSol == nil {
		t.Error("baseline analysis must still run")
	}
}

func TestTranslateEvalOntoReduced(t *testing.T) {
	fr := exampleFuncResult(t, engine.Options{CA: 1.0, CR: 0.6})
	_, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	ep, err := fr.TranslateEval(pr)
	if err != nil {
		t.Fatal(err)
	}
	if ep.TotalCount() != pr.TotalCount() {
		t.Errorf("translated count = %d, want %d", ep.TotalCount(), pr.TotalCount())
	}
	freq := profile.NodeFrequencies(ep, fr.Red.G)
	var total int64
	for _, f := range freq {
		total += f
	}
	if total == 0 {
		t.Error("translated profile yields no frequencies")
	}
}

func TestDefaultOptions(t *testing.T) {
	o := engine.DefaultOptions()
	if o.CA != 0.97 || o.CR != 0.95 {
		t.Errorf("DefaultOptions = %+v", o)
	}
}

func analyzeMulti(t *testing.T, o engine.Options) (*cfg.Program, *engine.ProgramResult) {
	t.Helper()
	prog, err := lang.Compile(multiSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := engine.Serial().ProfileAndAnalyze(ctx, prog, interp.Options{
		Args:  []ir.Value{200},
		Input: &interp.SliceInput{Values: stream(7)},
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	return prog, res
}

func TestAnalyzeProgramMultiFunction(t *testing.T) {
	prog, res := analyzeMulti(t, engine.Options{CA: 0.97, CR: 0.95})
	if len(res.Funcs) != 3 {
		t.Fatalf("results = %d, want 3", len(res.Funcs))
	}
	if !res.Funcs["main"].Qualified() || !res.Funcs["helper"].Qualified() {
		t.Error("hot functions should qualify")
	}
	// cold is never executed, so it cannot qualify.
	if res.Funcs["cold"].Qualified() {
		t.Error("cold function should not qualify")
	}
	st := res.Stats()
	if st.OrigNodes != prog.NumNodes() {
		t.Errorf("Stats.OrigNodes = %d, want %d", st.OrigNodes, prog.NumNodes())
	}
	if st.HPGNodes < st.OrigNodes || st.RedNodes < st.OrigNodes {
		t.Error("qualified graphs should not shrink below the original")
	}
	if st.RedNodes > st.HPGNodes {
		t.Error("reduction should not grow the HPG")
	}
	if st.HotPaths == 0 || st.TrainPaths == 0 {
		t.Error("path counts missing")
	}
}

func TestOptimizedAndBaselineProgramsEquivalent(t *testing.T) {
	prog, res := analyzeMulti(t, engine.Options{CA: 1.0, CR: 0.95})
	run := func(p *cfg.Program) []ir.Value {
		r, err := interp.Run(p, interp.Options{
			Args:          []ir.Value{200},
			Input:         &interp.SliceInput{Values: stream(7)},
			CollectOutput: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.Output
	}
	want := run(prog)
	optProg, optN := res.OptimizedProgram(opt.PassesAll)
	if optN.Total() == 0 {
		t.Error("optimizer folded nothing")
	}
	if got := run(optProg); !reflect.DeepEqual(got, want) {
		t.Errorf("optimized output = %v, want %v", got, want)
	}
	baseProg, baseN := engine.BaselineProgram(prog, opt.PassesAll)
	if got := run(baseProg); !reflect.DeepEqual(got, want) {
		t.Errorf("baseline output = %v, want %v", got, want)
	}
	// The qualified pipeline folds the helper's s-derived constants the
	// baseline cannot see, so it must rewrite strictly more instructions.
	if optN.Total() <= baseN.Total() {
		t.Errorf("qualified rewrites = %+v, baseline rewrites = %+v; want more", optN, baseN)
	}
}

func TestProfileAndAnalyzeErrorOnBadRun(t *testing.T) {
	prog, err := lang.Compile(`func main() { while (1) { x = 1; } }`)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = engine.Serial().ProfileAndAnalyze(ctx, prog, interp.Options{MaxSteps: 100}, engine.DefaultOptions())
	if err == nil {
		t.Error("expected training-run failure to surface")
	}
}

func TestQualifiedConstantsBeatBaselineOnExample(t *testing.T) {
	fr := exampleFuncResult(t, engine.Options{CA: 1.0, CR: 1.0})
	_, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	ep, err := fr.TranslateEval(pr)
	if err != nil {
		t.Fatal(err)
	}
	qual := countConstDyn(fr.FinalGraph(), fr.FinalSol(), ep, fr.Fn.NumVars())
	base := countConstDyn(fr.Fn.G, fr.OrigSol, pr, fr.Fn.NumVars())
	if base != 0 {
		t.Errorf("baseline non-local constants = %d, want 0", base)
	}
	if qual != 400 {
		t.Errorf("qualified non-local constants = %d, want 400", qual)
	}
}

func countConstDyn(g *cfg.Graph, sol *constprop.Result, pr *bl.Profile, numVars int) int64 {
	freq := profile.NodeFrequencies(pr, g)
	var total int64
	for _, nd := range g.Nodes {
		flags := constprop.ConstFlags(g, nd.ID, sol.EnvAt(nd.ID), numVars, true)
		for _, fl := range flags {
			if fl {
				total += freq[nd.ID]
			}
		}
	}
	return total
}
