package feasible_test

import (
	"testing"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	. "pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

func compile(t *testing.T, src string) *cfg.Program {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func varIdx(t *testing.T, f *cfg.Func, name string) int {
	t.Helper()
	for i, n := range f.VarNames {
		if n == name {
			return i
		}
	}
	t.Fatalf("no variable %q in %s", name, f.Name)
	return -1
}

// constNode locates the unique node whose block materializes literal k —
// a stable way to name "the block printing k" across lowering details.
func constNode(t *testing.T, g *cfg.Graph, k int64) cfg.NodeID {
	t.Helper()
	found := cfg.NodeID(-1)
	for _, nd := range g.Nodes {
		for i := range nd.Instrs {
			if nd.Instrs[i].Op == ir.Const && nd.Instrs[i].K == k {
				if found >= 0 && found != nd.ID {
					t.Fatalf("literal %d appears in multiple nodes", k)
				}
				found = nd.ID
			}
		}
	}
	if found < 0 {
		t.Fatalf("no node materializes literal %d", k)
	}
	return found
}

const nestedRetest = `
func main() {
	q = input();
	s = 9;
	if (q < 88) {
		if (q < 88) {
			s = 4;
		} else {
			s = input();
		}
		print(s);
	}
	print(q);
}`

// The classic correlated branch: a same-condition re-test nested inside
// the taken leg. The inner else leg is infeasible, and pruning it makes
// s constant at the inner print — precision neither Wegman-Zadek nor
// intervals can recover on their own (q is opaque input).
func TestNestedRetestPrunesInnerElse(t *testing.T) {
	f := compile(t, nestedRetest).Main()
	ed := Detect(f.G, f.NumVars())
	if ed.Count == 0 {
		t.Fatal("Detect found no infeasible edges on the nested re-test")
	}
	s := varIdx(t, f, "s")
	// print(s) lowers to `copy tmp = s; print tmp`; locate its block as
	// the one that both copies from s and prints.
	printS := cfg.NodeID(-1)
	for _, nd := range f.G.Nodes {
		copiesS, prints := false, false
		for i := range nd.Instrs {
			if nd.Instrs[i].Op == ir.Copy && int(nd.Instrs[i].A) == s {
				copiesS = true
			}
			if nd.Instrs[i].Op == ir.Print {
				prints = true
			}
		}
		if copiesS && prints {
			printS = nd.ID
		}
	}
	if printS < 0 {
		t.Fatal("no print(s) node")
	}
	base := constprop.AnalyzePacked(f.G, f.NumVars(), true)
	if base.EnvAt(printS)[s].IsConst() {
		t.Fatal("baseline already proves s constant; test program is too weak")
	}
	masked := constprop.AnalyzeMasked(f.G, f.NumVars(), true, ed.Mask())
	if got := masked.EnvAt(printS)[s]; !got.IsConst() || got.K != 4 {
		t.Fatalf("masked constprop at print(s): got %v, want const 4", got)
	}
}

// Sequential same-condition branches re-merge before the re-test, so the
// predicate is intersected away and nothing may be pruned on the CFG.
// (This is exactly the case hot-path duplication un-merges — the
// frequency and feasibility axes compose, neither subsumes the other.)
func TestMergeKillsCorrelation(t *testing.T) {
	f := compile(t, `
func main() {
	q = input();
	if (q < 88) { print(1); } else { print(2); }
	if (q < 88) { print(3); } else { print(4); }
}`).Main()
	if ed := Detect(f.G, f.NumVars()); ed.Count != 0 {
		t.Fatalf("pruned %d edges across a merge that kills the correlation", ed.Count)
	}
}

// Writing the tested register between correlated branches must kill the
// predicate: the second test sees a different value.
func TestWriteKillsPredicate(t *testing.T) {
	f := compile(t, `
func main() {
	q = input();
	if (q < 88) {
		q = input();
		if (q < 88) { print(1); } else { print(2); }
	}
	print(q);
}`).Main()
	if ed := Detect(f.G, f.NumVars()); ed.Count != 0 {
		t.Fatalf("pruned %d edges despite the re-test register being rewritten", ed.Count)
	}
}

const negatedRetest = `
func main() {
	q = input();
	if (q >= 88) {
		print(1);
	} else {
		if (q < 88) { print(2); } else { print(3); }
	}
}`

// Negated-condition correlation: the fall-through leg of q >= 88
// establishes q < 88, so the inner else (print(3)) is infeasible.
func TestNegatedConditionPrunes(t *testing.T) {
	f := compile(t, negatedRetest).Main()
	ed := Detect(f.G, f.NumVars())
	dead := constNode(t, f.G, 3)
	base := constprop.AnalyzePacked(f.G, f.NumVars(), true)
	if !base.Reached(dead) {
		t.Fatal("baseline already prunes print(3); test program is too weak")
	}
	masked := constprop.AnalyzeMasked(f.G, f.NumVars(), true, ed.Mask())
	if masked.Reached(dead) {
		t.Fatal("print(3) still reached: negated-condition correlation missed")
	}
}

const truthyRetest = `
func main() {
	flag = input();
	if (flag) {
		if (flag) { print(1); } else { print(2); }
	}
	print(0);
}`

// Truthiness correlation: re-testing the same untouched register inside
// the taken leg makes the inner else (print(2)) infeasible even with no
// comparison in sight.
func TestTruthyCorrelationPrunes(t *testing.T) {
	f := compile(t, truthyRetest).Main()
	ed := Detect(f.G, f.NumVars())
	dead := constNode(t, f.G, 2)
	masked := constprop.AnalyzeMasked(f.G, f.NumVars(), true, ed.Mask())
	if masked.Reached(dead) {
		t.Fatal("print(2) still reached: truthiness correlation missed")
	}
}

const loopRetest = `
func main() {
	n = arg(0);
	i = 0;
	s = 0;
	while (i < n) {
		if (i < n) { s = s + i; } else { s = 0 - 1; }
		i = i + 1;
	}
	print(s);
}`

// The loop header's taken leg carries i < n into the body, so the
// body's re-test prunes its else leg — and the back edge (which rewrites
// i) must not leak the stale predicate back into the header.
func TestLoopBodyRetest(t *testing.T) {
	f := compile(t, loopRetest).Main()
	ed := Detect(f.G, f.NumVars())
	if ed.Count == 0 {
		t.Fatal("loop-body re-test not pruned")
	}
}

// Lattice evidence alone (a constant-condition branch) must surface in
// the mask too, so downstream consumers see one artifact per graph.
func TestLatticeEvidenceFolded(t *testing.T) {
	f := compile(t, `
func main() {
	if (1 < 2) { print(7); } else { print(9); }
}`).Main()
	ed := Detect(f.G, f.NumVars())
	dead := constNode(t, f.G, 9)
	for _, eid := range f.G.Node(dead).In {
		if !ed.Has(eid) {
			t.Fatalf("edge %d into the constant-dead leg not in the mask", eid)
		}
	}
}

// The empirical soundness gate in miniature: across the detector's own
// test programs and a spread of inputs, no edge the interpreter actually
// traverses may ever be in the mask.
func TestNoExecutedEdgeMasked(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		args   []ir.Value
		inputs []ir.Value
	}{
		{"nested-low", nestedRetest, nil, []ir.Value{50, 7}},
		{"nested-high", nestedRetest, nil, []ir.Value{120, 7}},
		{"negated-low", negatedRetest, nil, []ir.Value{3}},
		{"negated-high", negatedRetest, nil, []ir.Value{88}},
		{"truthy-zero", truthyRetest, nil, []ir.Value{0}},
		{"truthy-nonzero", truthyRetest, nil, []ir.Value{-5}},
		{"loop-empty", loopRetest, []ir.Value{0}, nil},
		{"loop-run", loopRetest, []ir.Value{6}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compile(t, tc.src)
			masks := map[string]*Edges{}
			for _, fn := range prog.Funcs {
				masks[fn.Name] = Detect(fn.G, fn.NumVars())
			}
			_, err := interp.Run(prog, interp.Options{
				Args:  tc.args,
				Input: &interp.SliceInput{Values: tc.inputs},
				OnEdge: func(fn *cfg.Func, e cfg.EdgeID) {
					if masks[fn.Name].Has(e) {
						t.Errorf("%s: executed edge %d is marked infeasible", fn.Name, e)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Detect must be deterministic — the engine caches and fingerprints its
// result, and the oracle recomputes it for the reduced tier.
func TestDetectDeterministic(t *testing.T) {
	f := compile(t, nestedRetest).Main()
	a := Detect(f.G, f.NumVars())
	b := Detect(f.G, f.NumVars())
	if a.Count != b.Count || len(a.Infeasible) != len(b.Infeasible) {
		t.Fatal("Detect not deterministic")
	}
	for i := range a.Infeasible {
		if a.Infeasible[i] != b.Infeasible[i] {
			t.Fatalf("Detect not deterministic at edge %d", i)
		}
	}
}
