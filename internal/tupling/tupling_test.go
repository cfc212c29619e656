package tupling_test

import (
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
	"pathflow/internal/progen"
	"pathflow/internal/trace"
	. "pathflow/internal/tupling"
)

// checkAgainstTracing verifies Holley & Rosen's equivalence: the tupled
// solution at (v, q) must equal the traced solution at HPG node (v, q),
// including reachability.
func checkAgainstTracing(t *testing.T, fn *cfg.Func, a *automaton.Automaton) {
	t.Helper()
	h, err := trace.Build(fn, a)
	if err != nil {
		t.Fatal(err)
	}
	traced := constprop.AnalyzeBoxed(h.G, fn.NumVars(), true)
	tupled := Analyze(fn.G, fn.NumVars(), a, true)

	for _, nd := range h.G.Nodes {
		v, q := h.OrigNode[nd.ID], h.State[nd.ID]
		tEnv, tOK := tupled.EnvAt(v, q)
		hOK := traced.Reached(nd.ID)
		if tOK != hOK {
			t.Fatalf("%s: reachability of (%d,%v) differs: tupled=%v traced=%v",
				fn.Name, v, q, tOK, hOK)
		}
		if !tOK {
			continue
		}
		hEnv := traced.EnvAt(nd.ID)
		if !tEnv.Equal(hEnv) {
			t.Fatalf("%s: solutions differ at (%d,%v):\ntupled %s\ntraced %s",
				fn.Name, v, q, tEnv.String(fn.VarNames), hEnv.String(fn.VarNames))
		}
	}
	// Conversely, every populated tuple slot must have an HPG node.
	for _, nd := range fn.G.Nodes {
		for _, q := range tupled.States(nd.ID) {
			if _, ok := h.NodeFor(nd.ID, q); !ok {
				t.Fatalf("%s: tupled state (%d,%v) has no HPG node", fn.Name, nd.ID, q)
			}
		}
	}
}

func TestTuplingMatchesTracingOnExample(t *testing.T) {
	f, _, edges := paperex.Build()
	ps := paperex.Paths(edges)
	for nHot := 0; nHot <= 4; nHot++ {
		a, err := automaton.New(f.G, paperex.Recording(edges), ps[:nHot])
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstTracing(t, f, a)
	}
}

func TestTuplingExampleConstants(t *testing.T) {
	f, nodes, edges := paperex.Build()
	ps := paperex.Paths(edges)
	a, err := automaton.New(f.G, paperex.Recording(edges), ps[:])
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(f.G, f.NumVars(), a, true)
	// State 15 (displayed "14") is H14's context: the paper's x = 6.
	var q14 automaton.State = -1
	for _, q := range r.States(nodes.H) {
		if a.Name(q) == "14" {
			q14 = q
		}
	}
	if q14 < 0 {
		t.Fatalf("no state named 14 at H (have %v)", r.States(nodes.H))
	}
	env, ok := r.EnvAt(nodes.H, q14)
	if !ok {
		t.Fatal("H14 unreached")
	}
	// At H14's entry, a=2, b=4, i=0.
	if env[paperex.VarA] != constprop.ConstOf(2) ||
		env[paperex.VarB] != constprop.ConstOf(4) ||
		env[paperex.VarI] != constprop.ConstOf(0) {
		t.Errorf("env at (H, q14) = %s", env.String(f.VarNames))
	}
	// The merged solution loses b, like the unqualified analysis.
	merged, ok := r.MergedEnvAt(nodes.H)
	if !ok {
		t.Fatal("H unreached")
	}
	if merged[paperex.VarB].IsConst() {
		t.Errorf("merged b = %v, want non-constant", merged[paperex.VarB])
	}
	if merged[paperex.VarA] != constprop.ConstOf(2) {
		t.Errorf("merged a = %v, want 2", merged[paperex.VarA])
	}
}

// TestTuplingMatchesTracingOnRandomPrograms is the §4.3 equivalence on
// generated programs with automatons built from their real profiles.
func TestTuplingMatchesTracingOnRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		src := progen.Generate(progen.DefaultConfig(seed))
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pp, _, err := bl.ProfileProgram(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    &interp.SliceInput{Values: inputVals(seed)},
			MaxSteps: 2_000_000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, fn := range prog.Funcs {
			pr := pp.Funcs[name]
			if pr.NumPaths() == 0 {
				continue
			}
			hot := profile.SelectHot(pr, fn.G, 1.0)
			a, err := automaton.New(fn.G, pr.R, hot)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			checkAgainstTracing(t, fn, a)
		}
	}
}

func inputVals(seed uint64) []ir.Value {
	vals := make([]ir.Value, 64)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0xffff)
	}
	return vals
}

// TestTupledBeatsPlainOnMerge: Theorem 1 — the merged tupled solution is
// never worse than the unqualified solution.
func TestTupledMergeNeverWorse(t *testing.T) {
	f, _, edges := paperex.Build()
	ps := paperex.Paths(edges)
	a, err := automaton.New(f.G, paperex.Recording(edges), ps[:])
	if err != nil {
		t.Fatal(err)
	}
	tup := Analyze(f.G, f.NumVars(), a, true)
	plain := constprop.AnalyzeBoxed(f.G, f.NumVars(), true)
	for _, nd := range f.G.Nodes {
		merged, ok := tup.MergedEnvAt(nd.ID)
		if !ok {
			if plain.Reached(nd.ID) {
				t.Fatalf("node %s reached by plain but not tupled", nd.Name)
			}
			continue
		}
		pEnv := plain.EnvAt(nd.ID)
		for v := range pEnv {
			if pEnv[v].IsConst() {
				if !merged[v].IsConst() || merged[v].K != pEnv[v].K {
					t.Errorf("node %s: plain says v%d=%v, merged tupled says %v",
						nd.Name, v, pEnv[v], merged[v])
				}
			}
		}
	}
}
