package feasible_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	. "pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// detectReference is Detect's fold on the boxed reference solvers:
// masked constant propagation and the widening-free clamped interval
// analysis, both solved by dataflow.Solve with facts boxed per node,
// re-run under the grown mask each round. Detect must produce exactly
// its masks.
func detectReference(g *cfg.Graph, numVars int) []bool {
	mask := make([]bool, len(g.Edges))
	syntactic := Syntactic(g, numVars)
	thr := intervals.Thresholds(g)
	fold := func() bool {
		wz := constprop.AnalyzeBoxedMasked(g, numVars, true, mask)
		iv := dataflow.Solve(g, &intervals.ClampedProblem{NumVars: numVars, Conditional: true, T: thr, Infeasible: mask})
		changed := false
		for e := range mask {
			if !mask[e] && (!wz.Sol.EdgeExecutable[e] || !iv.EdgeExecutable[e]) {
				mask[e] = true
				changed = true
			}
		}
		return changed
	}
	fold()
	for round := 0; round < MaxRounds; round++ {
		if !syntactic(mask) {
			break
		}
		if !fold() {
			break
		}
	}
	return mask
}

// refGraph is one analyzed graph tier: a function's CFG, HPG or rHPG.
type refGraph struct {
	label string
	g     *cfg.Graph
	nv    int
}

// tierGraphs appends every function's CFG, and the HPG and rHPG of the
// qualified ones, skipping graphs already collected.
func tierGraphs(out []refGraph, seen map[*cfg.Graph]bool, label string, res *engine.ProgramResult) []refGraph {
	add := func(tier string, fn string, g *cfg.Graph, nv int) {
		if !seen[g] {
			seen[g] = true
			out = append(out, refGraph{label: label + "/" + fn + "/" + tier, g: g, nv: nv})
		}
	}
	for _, name := range res.Prog.Order {
		fr := res.Funcs[name]
		nv := fr.Fn.NumVars()
		add("cfg", name, fr.Fn.G, nv)
		if fr.Qualified() {
			add("hpg", name, fr.HPG.G, nv)
			add("rhpg", name, fr.Red.G, nv)
		}
	}
	return out
}

var (
	namedOnce   sync.Once
	namedSet    []refGraph
	namedSetErr error

	correlatedOnce   sync.Once
	correlatedSet    []refGraph
	correlatedSetErr error
)

// namedGraphs returns every function's CFG, HPG and rHPG in the seven
// named programs, analyzed with feasibility on at CA .97 / CR .95: 43
// CFGs plus the HPG and rHPG of the 14 qualified functions.
func namedGraphs(tb testing.TB) []refGraph {
	tb.Helper()
	namedOnce.Do(func() {
		eng := engine.New(engine.Config{Workers: 1})
		seen := map[*cfg.Graph]bool{}
		for _, b := range bench.All() {
			in, err := bench.Load(b, eng)
			if err != nil {
				namedSetErr = err
				return
			}
			res, err := in.Analyze(context.Background(), engine.Options{CA: 0.97, CR: 0.95, Feasible: true})
			if err != nil {
				namedSetErr = err
				return
			}
			namedSet = tierGraphs(namedSet, seen, b.Name, res)
		}
	})
	if namedSetErr != nil {
		tb.Fatal(namedSetErr)
	}
	return namedSet
}

// correlatedGraphs returns the graph tiers of progen programs biased
// toward correlated re-tests (Correlated=40, seeds 1–12), analyzed with
// feasibility on at CA .75, .97 and 1.
func correlatedGraphs(tb testing.TB) []refGraph {
	tb.Helper()
	correlatedOnce.Do(func() { correlatedSet, correlatedSetErr = buildCorrelatedGraphs() })
	if correlatedSetErr != nil {
		tb.Fatal(correlatedSetErr)
	}
	return correlatedSet
}

// correlatedProgram compiles the progen program biased toward
// correlated re-tests (Correlated=40) for seed and profiles its
// training run.
func correlatedProgram(seed uint64) (*cfg.Program, *bl.ProgramProfile, error) {
	gen := progen.DefaultConfig(seed)
	gen.Correlated = 40
	prog, err := lang.Compile(progen.Generate(gen))
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	train, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:     []ir.Value{3, 7, 11},
		Input:    &interp.SliceInput{Values: bench.InputValues(seed, 64)},
		MaxSteps: 2_000_000,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("seed %d: training run: %w", seed, err)
	}
	return prog, train, nil
}

func buildCorrelatedGraphs() ([]refGraph, error) {
	eng := engine.New(engine.Config{Workers: 1})
	seen := map[*cfg.Graph]bool{}
	var out []refGraph
	for seed := uint64(1); seed <= 12; seed++ {
		prog, train, err := correlatedProgram(seed)
		if err != nil {
			return nil, err
		}
		for _, ca := range []float64{0.75, 0.97, 1} {
			res, err := eng.AnalyzeProgram(context.Background(), prog, train, engine.Options{CA: ca, CR: 0.95, Feasible: true})
			if err != nil {
				return nil, fmt.Errorf("seed %d CA=%v: %w", seed, ca, err)
			}
			out = tierGraphs(out, seen, fmt.Sprintf("progen %d CA=%v", seed, ca), res)
		}
	}
	return out, nil
}

// offThresholdSrc compares registers with registers, so branch
// refinement moves bounds off the threshold set (x < y with y ≤ 99
// gives x ≤ 98, and only 99, 100 and 101 come from the literal) in
// registers the branch block never writes. Only clamping every changed
// cell, not just instruction destinations, puts them back.
const offThresholdSrc = `
func main() {
	x = input();
	y = input();
	if (y < 100) {
		if (x < y) { print(x); }
	}
	print(x);
}`

// referenceGraphs is the differential tests' input: the named programs'
// graphs, the correlated generated ones and offThresholdSrc's CFG.
func referenceGraphs(t *testing.T) []refGraph {
	named := namedGraphs(t)
	if len(named) != 71 {
		t.Fatalf("named graph set has %d graphs, want 71", len(named))
	}
	off := compile(t, offThresholdSrc).Main()
	graphs := append(append([]refGraph(nil), named...), correlatedGraphs(t)...)
	return append(graphs, refGraph{label: "off-threshold/main/cfg", g: off.G, nv: off.NumVars()})
}

// TestDetectMatchesBoxedReference pins Detect's packed edges-only folds
// to the boxed fold they replaced: identical infeasible-edge masks on
// every graph tier of the named and the correlated generated programs.
func TestDetectMatchesBoxedReference(t *testing.T) {
	graphs := referenceGraphs(t)
	marked := 0
	for _, rg := range graphs {
		got := Detect(rg.g, rg.nv)
		want := detectReference(rg.g, rg.nv)
		if len(got.Infeasible) != len(want) {
			t.Fatalf("%s: mask length %d, reference %d", rg.label, len(got.Infeasible), len(want))
		}
		for e := range want {
			if got.Infeasible[e] != want[e] {
				t.Errorf("%s: edge %d infeasible=%t, reference %t", rg.label, e, got.Infeasible[e], want[e])
				break
			}
		}
		marked += got.Count
	}
	if marked == 0 {
		t.Fatal("no graph had an infeasible edge; the comparison proves nothing")
	}
	t.Logf("%d graphs, %d infeasible edges", len(graphs), marked)
}

// checkClampedMatchesBoxed requires the packed clamped solve to equal
// dataflow.Solve over the same ClampedProblem: reachability, edge
// executability, iteration count and every fact.
func checkClampedMatchesBoxed(t *testing.T, label string, g *cfg.Graph, nv int, thr []int64, mask []bool) {
	t.Helper()
	lat := &intervals.ClampedProblem{NumVars: nv, Conditional: true, T: thr, Infeasible: mask}
	boxed := dataflow.Solve(g, lat)
	packed := intervals.AnalyzeClampedMasked(g, nv, thr, true, mask)
	if err := oracle.Differential("intervals/clamped", label, lat, boxed, packed.Sol).Err(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	s := intervals.ClampedSolver(g, nv, thr, true, mask)
	s.Run()
	if s.Iterations != boxed.Iterations {
		t.Errorf("%s: solver iterations %d, boxed %d", label, s.Iterations, boxed.Iterations)
	}
	for e := range boxed.EdgeExecutable {
		if s.EdgeExecutable[e] != boxed.EdgeExecutable[e] {
			t.Errorf("%s: solver edge %d executable=%t, boxed %t", label, e, s.EdgeExecutable[e], boxed.EdgeExecutable[e])
			break
		}
	}
}

// TestClampedSolverMatchesBoxed locks the packed clamped domain to the
// boxed ClampedProblem on the same graphs as the Detect differential,
// once unmasked and once under Detect's mask.
func TestClampedSolverMatchesBoxed(t *testing.T) {
	for _, rg := range referenceGraphs(t) {
		thr := intervals.Thresholds(rg.g)
		checkClampedMatchesBoxed(t, rg.label+" unmasked", rg.g, rg.nv, thr, nil)
		checkClampedMatchesBoxed(t, rg.label+" masked", rg.g, rg.nv, thr, Detect(rg.g, rg.nv).Infeasible)
	}
}

// BenchmarkDetect runs Detect over the named programs' 71 graph tiers,
// on the packed kernel and on the boxed reference fold. ci.sh gates
// packed B/op at no more than a tenth of the reference's.
func BenchmarkDetect(b *testing.B) {
	graphs := namedGraphs(b)
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rg := range graphs {
				Detect(rg.g, rg.nv)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rg := range graphs {
				detectReference(rg.g, rg.nv)
			}
		}
	})
}
