package feasible_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
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
	referenceFold(g, numVars, thr, mask)
	for round := 0; round < MaxRounds; round++ {
		if !syntactic(mask) {
			break
		}
		if !referenceFold(g, numVars, thr, mask) {
			break
		}
	}
	return mask
}

// referenceFold is one lattice-evidence fold of detectReference: it
// marks every edge the boxed masked constant propagation or clamped
// interval solve never delivers along, and reports whether mask grew.
func referenceFold(g *cfg.Graph, numVars int, thr []int64, mask []bool) bool {
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

// checkSyntacticMatchesReference requires the packed syntactic
// fixpoint to grow exactly the mask the map reference grows on rg, and
// to report the same result, under three starting masks: none, the
// mask of one lattice-evidence fold, and Detect's final mask. It
// returns how many edges the reference added over the three.
func checkSyntacticMatchesReference(t *testing.T, rg refGraph) int {
	t.Helper()
	added := 0
	folded := make([]bool, len(rg.g.Edges))
	referenceFold(rg.g, rg.nv, intervals.Thresholds(rg.g), folded)
	starts := []struct {
		name string
		mask []bool
	}{
		{"unmasked", make([]bool, len(rg.g.Edges))},
		{"folded", folded},
		{"detected", Detect(rg.g, rg.nv).Infeasible},
	}
	for _, st := range starts {
		want := slices.Clone(st.mask)
		wantGrew := Syntactic(rg.g, rg.nv)(want)
		for e := range want {
			if want[e] && !st.mask[e] {
				added++
			}
		}
		got := slices.Clone(st.mask)
		if grew := SyntacticPacked(rg.g, rg.nv, got)(); grew != wantGrew {
			t.Errorf("%s (%s): packed pass grew=%t, reference %t", rg.label, st.name, grew, wantGrew)
		}
		for e := range want {
			if got[e] != want[e] {
				t.Errorf("%s (%s): edge %d infeasible=%t, reference %t", rg.label, st.name, e, got[e], want[e])
				break
			}
		}
	}
	return added
}

// writeOnLegSrc writes x in the block of a branch on y, whose
// fall-through leg re-tests x: the fact x < 10 from the outer branch
// must die on both legs of the inner one, or the re-test's else leg is
// pruned although x may be 10 there.
const writeOnLegSrc = `
func main() {
	x = input();
	y = input();
	if (x < 10) {
		x = x + 1;
		if (y < 5) { print(y); } else {
			if (x < 10) { print(x); } else { print(0); }
		}
	}
}`

// TestSyntacticMatchesReference pins the packed syntactic pass to the
// map reference it replaced on every reference graph tier and on
// writeOnLegSrc's CFG.
func TestSyntacticMatchesReference(t *testing.T) {
	leg := compile(t, writeOnLegSrc).Main()
	graphs := append(referenceGraphs(t), refGraph{label: "write-on-leg/main/cfg", g: leg.G, nv: leg.NumVars()})
	added := 0
	for _, rg := range graphs {
		added += checkSyntacticMatchesReference(t, rg)
	}
	if added == 0 {
		t.Fatal("the reference pass marked no edge; the comparison proves nothing")
	}
	t.Logf("%d graphs, %d edges marked by the reference pass", len(graphs), added)
}

// checkClampedMatchesBoxed requires the packed clamped solve to equal
// dataflow.Solve over the same ClampedProblem: reachability, edge
// executability, iteration count and every fact. AnalyzeClampedMasked
// solves at full width; ClampedSolver solves over the graph's column
// map, so its reference is the ClampedProblem over the same columns.
func checkClampedMatchesBoxed(t *testing.T, label string, g *cfg.Graph, nv int, thr []int64, mask []bool) {
	t.Helper()
	lat := &intervals.ClampedProblem{NumVars: nv, Conditional: true, T: thr, Infeasible: mask}
	boxed := dataflow.Solve(g, lat)
	packed := intervals.AnalyzeClampedMasked(g, nv, thr, true, mask)
	if err := oracle.Differential("intervals/clamped", label, lat, boxed, packed.Boxed()).Err(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	narrow := *lat
	narrow.Cols = g.Columns()
	boxed = dataflow.Solve(g, &narrow)
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

// checkNarrowMatchesFull requires the solvers that carry only rg's
// non-local registers to agree with full-width solves, unmasked and
// under Detect's mask: constant propagation's EnvAt at every reached
// node, its reachability and its executable edges, and ClampedSolver's
// reachability and executable edges.
func checkNarrowMatchesFull(t *testing.T, rg refGraph) {
	t.Helper()
	thr := intervals.Thresholds(rg.g)
	for _, mask := range [][]bool{nil, Detect(rg.g, rg.nv).Infeasible} {
		if err := constprop.CheckNarrow(rg.g, rg.nv, true, mask); err != nil {
			t.Errorf("%s (masked=%t) constprop: %v", rg.label, mask != nil, err)
		}
		if err := intervals.CheckClampedNarrow(rg.g, rg.nv, thr, true, mask); err != nil {
			t.Errorf("%s (masked=%t) clamped: %v", rg.label, mask != nil, err)
		}
	}
}

// TestNarrowMatchesFullWidth pins the narrow rows to full width on every
// reference graph tier and on every function of progen seeds 1–25.
func TestNarrowMatchesFullWidth(t *testing.T) {
	graphs := referenceGraphs(t)
	for seed := uint64(1); seed <= 25; seed++ {
		prog := compile(t, progen.Generate(progen.DefaultConfig(seed)))
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			graphs = append(graphs, refGraph{label: fmt.Sprintf("progen %d/%s/cfg", seed, name), g: fn.G, nv: fn.NumVars()})
		}
	}
	for _, rg := range graphs {
		checkNarrowMatchesFull(t, rg)
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

// TestClampedWriteSetCoversTransfer: on every graph tier, unmasked and
// under Detect's mask, the clamped Transfer — the packed domain's slot
// rows and the boxed ClampedProblem's out-facts alike — changes no
// register outside the node's static write set W(n), the registers the
// packed domain confines its work to.
func TestClampedWriteSetCoversTransfer(t *testing.T) {
	for _, rg := range referenceGraphs(t) {
		thr := intervals.Thresholds(rg.g)
		for _, mask := range [][]bool{nil, Detect(rg.g, rg.nv).Infeasible} {
			if err := intervals.CheckClampedWriteSets(rg.g, rg.nv, thr, true, mask); err != nil {
				t.Errorf("%s (masked=%t): %v", rg.label, mask != nil, err)
			}
		}
	}
}

// saturatingSrc puts literals at both saturating ends of int64, so that
// addSat rounds their k±1 thresholds into ±∞ and the threshold set has
// members next to both infinities. The front end lowers a negative
// literal to Neg of a positive one, so the literals near math.MinInt64
// are spelled as placeholders that saturatingGraph rewrites.
const saturatingSrc = `
func main() {
	x = input();
	y = input();
	if (x > 9223372036854775806) { print(x); }
	z = x + 9223372036854775807;
	if (z < 9223372036854775807) { print(z); }
	i = 9223372036854775800;
	while (i < 9223372036854775806) { i = i + 1; }
	if (y < 4001) { print(y); }
	w = y - 9223372036854775807;
	if (w > 4001) { print(w); }
	j = 4003;
	while (j > 4002) { j = j - 1; }
	print(x + y + i + j);
}`

// saturatingGraph compiles saturatingSrc and rewrites its placeholder
// literals to the values next to math.MinInt64.
func saturatingGraph(t *testing.T) *cfg.Func {
	f := compile(t, saturatingSrc).Main()
	low := map[ir.Value]ir.Value{4001: math.MinInt64 + 1, 4002: math.MinInt64, 4003: math.MinInt64 + 5}
	for _, nd := range f.G.Nodes {
		for i := range nd.Instrs {
			if in := &nd.Instrs[i]; in.Op == ir.Const {
				if k, ok := low[in.K]; ok {
					in.K = k
				}
			}
		}
	}
	return f
}

// TestClampedSolverMatchesBoxedAtSaturatingEnds holds the packed
// clamped domain to the boxed ClampedProblem when the thresholds crowd
// both ends of int64, unmasked and under Detect's mask.
func TestClampedSolverMatchesBoxedAtSaturatingEnds(t *testing.T) {
	f := saturatingGraph(t)
	g, nv := f.G, f.NumVars()
	thr := intervals.Thresholds(g)
	for _, k := range []int64{math.MinInt64 + 1, math.MinInt64 + 2, math.MaxInt64 - 1, math.MaxInt64 - 2} {
		if !slices.Contains(thr, k) {
			t.Fatalf("thresholds %v lack %d", thr, k)
		}
	}
	checkClampedMatchesBoxed(t, "saturating unmasked", g, nv, thr, nil)
	checkClampedMatchesBoxed(t, "saturating masked", g, nv, thr, Detect(g, nv).Infeasible)
	if err := intervals.CheckClampedWriteSets(g, nv, thr, true, nil); err != nil {
		t.Error(err)
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

// BenchmarkSyntacticResolve re-solves the pre-built kernel solvers of
// Detect's packed syntactic pass over the named programs' 71 graph
// tiers, unmasked and under Detect's mask: the loop each of the pass's
// rounds runs. ci.sh gates both configurations on exactly 0 B/op and 0
// allocs/op.
func BenchmarkSyntacticResolve(b *testing.B) {
	graphs := namedGraphs(b)
	for _, masked := range []bool{false, true} {
		name := "unmasked"
		if masked {
			name = "masked"
		}
		b.Run(name, func(b *testing.B) {
			solvers := make([]*kernel.Solver, len(graphs))
			for i, rg := range graphs {
				mask := make([]bool, len(rg.g.Edges))
				if masked {
					mask = Detect(rg.g, rg.nv).Infeasible
				}
				solvers[i] = SyntacticSolver(rg.g, rg.nv, mask)
				solvers[i].Run() // warm: arenas sized before the timer starts
			}
			runtime.GC() // collect the set-up garbage outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range solvers {
					s.Run()
				}
			}
		})
	}
}

// BenchmarkClampedResolve re-solves pre-built intervals.ClampedSolvers
// over the named programs' 71 graph tiers, unmasked and under Detect's
// mask: the steady-state loop each of Detect's folds runs. ci.sh gates
// both configurations on exactly 0 B/op and 0 allocs/op.
func BenchmarkClampedResolve(b *testing.B) {
	graphs := namedGraphs(b)
	for _, masked := range []bool{false, true} {
		name := "unmasked"
		if masked {
			name = "masked"
		}
		b.Run(name, func(b *testing.B) {
			solvers := make([]*kernel.Solver, len(graphs))
			for i, rg := range graphs {
				var mask []bool
				if masked {
					mask = Detect(rg.g, rg.nv).Infeasible
				}
				solvers[i] = intervals.ClampedSolver(rg.g, rg.nv, intervals.Thresholds(rg.g), true, mask)
				solvers[i].Run() // warm: arenas sized before the timer starts
			}
			runtime.GC() // collect the set-up garbage outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range solvers {
					s.Run()
				}
			}
		})
	}
}
