package engine_test

import (
	"testing"

	"pathflow/internal/availexpr"
	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/intervals"
	"pathflow/internal/lang"
	"pathflow/internal/liveness"
	"pathflow/internal/progen"
)

// FuzzKernelEquivalence is the representation-change falsifier: for
// arbitrary generated programs, the full pipeline run on the packed
// arena kernels must be pointwise identical to the boxed reference run
// — every graph tier (CFG, HPG, reduced HPG), every client (constant
// propagation, intervals, liveness, available expressions), facts,
// reachability, edge executability, and iteration counts. Both engines
// run cache-less so every solution is freshly computed by its own
// backend.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(5))
	f.Add(uint64(2), uint64(3))
	f.Add(uint64(7), uint64(9))
	f.Add(uint64(19), uint64(1))
	f.Add(uint64(42), uint64(17))
	// Structure-targeted seeds: 301 generates the longest straight-line
	// chain in the first 400 seeds (graph diameter 48 — stresses long
	// propagation chains through the priority worklist), 138 the most
	// branch nodes (118 — deep nested diamonds stress merge-point meets
	// and per-edge executability).
	f.Add(uint64(301), uint64(11))
	f.Add(uint64(138), uint64(5))

	f.Fuzz(func(t *testing.T, seed, inputSeed uint64) {
		src := progen.Generate(progen.DefaultConfig(seed))
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		train, err := fuzzProfile(prog, inputSeed)
		if err != nil {
			t.Skip("training run did not terminate in budget")
		}
		kernelEquivalence(t, prog, train)
	})
}

// FuzzKernelCFG is FuzzKernelEquivalence narrowed to what one exec can
// afford many times a second: it compiles one generated single-function
// program and solves only its CFG, with no training run and no
// pipeline. The fuzzer picks the program's seed and its size
// (statements per block and nesting depth), so most execs solve a small
// graph. On that graph the packed kernels must match the boxed
// reference for conditional constant propagation, intervals, liveness
// and available expressions: facts, reachability, edge executability
// and iteration counts.
func FuzzKernelCFG(f *testing.F) {
	for _, seed := range []uint64{1, 2, 7, 42, 138, 301} {
		f.Add(seed, uint8(seed))
	}

	f.Fuzz(func(t *testing.T, seed uint64, shape uint8) {
		c := progen.DefaultConfig(seed)
		c.Funcs = 0
		c.MaxStmts = 1 + int(shape%6)
		c.MaxDepth = 1 + int(shape/6%3)
		prog, err := lang.Compile(progen.Generate(c))
		if err != nil {
			t.Fatalf("%+v: generated program does not compile: %v", c, err)
		}
		fn := prog.Main()
		g, nv := fn.G, fn.NumVars()
		check := func(client string, lat oracle.Lattice, b, p *dataflow.Solution) {
			t.Helper()
			if err := oracle.Differential(client, "cfg", lat, b, p).Err(); err != nil {
				t.Errorf("%+v: %v", c, err)
			}
		}
		cpB, cpP := constprop.AnalyzeBoxed(g, nv, true), constprop.AnalyzePacked(g, nv, true)
		check("constprop", &constprop.Problem{NumVars: nv, Conditional: true}, cpB.Boxed(), cpP.Boxed())
		check("intervals", &intervals.Problem{NumVars: nv, Conditional: true},
			intervals.AnalyzeBoxed(g, nv, true).Sol, intervals.AnalyzePacked(g, nv, true).Sol)
		check("liveness", &liveness.Problem{NumVars: nv},
			liveness.AnalyzeBoxed(g, nv, cpB.Sol).Sol, liveness.AnalyzePacked(g, nv, cpP.Sol).Sol)
		u := availexpr.NewUniverse(g, nv)
		check("availexpr", &availexpr.Problem{U: u},
			availexpr.AnalyzeBoxed(g, u, cpB.Sol).Sol, availexpr.AnalyzePacked(g, u, cpP.Sol).Sol)
	})
}

// TestKernelEquivalenceBenchmarks runs FuzzKernelEquivalence's
// differential over the paper's 7 named benchmarks with their training
// profiles: every tier (CFG, HPG, rHPG), every client, boxed vs packed.
func TestKernelEquivalenceBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		t.Run(b.Name, func(t *testing.T) {
			prog, err := b.Program()
			if err != nil {
				t.Fatal(err)
			}
			train, _, err := bl.ProfileProgram(prog, b.TrainOptions())
			if err != nil {
				t.Fatal(err)
			}
			kernelEquivalence(t, prog, train)
		})
	}
}

// kernelEquivalence analyzes prog under both kernels on cache-less
// engines and requires pointwise-identical solutions on every tier and
// client.
func kernelEquivalence(t *testing.T, prog *cfg.Program, train *bl.ProgramProfile) {
	t.Helper()
	run := func(k dataflow.Kernel) *engine.ProgramResult {
		o := engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll, Kernel: k}
		res, err := engine.New(engine.Config{Workers: 1}).AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			t.Fatalf("%s analysis failed: %v", k, err)
		}
		return res
	}
	boxed := run(dataflow.KernelBoxed)
	packed := run(dataflow.KernelPacked)

	if a, b := summarize(boxed), summarize(packed); a != b {
		t.Fatalf("packed summary differs from boxed\nboxed:\n%s\npacked:\n%s", a, b)
	}

	check := func(fn, client, tier string, lat oracle.Lattice, b, p *dataflow.Solution) {
		t.Helper()
		if (b == nil) != (p == nil) {
			t.Fatalf("%s/%s/%s: solution presence differs (boxed %v, packed %v)", fn, client, tier, b != nil, p != nil)
		}
		if b == nil {
			return
		}
		if err := oracle.Differential(client, tier, lat, b, p).Err(); err != nil {
			t.Errorf("func %s tier %s: %v", fn, tier, err)
		}
	}
	for _, name := range prog.Order {
		bfr, pfr := boxed.Funcs[name], packed.Funcs[name]
		nv := prog.Funcs[name].NumVars()
		if bfr.Qualified() != pfr.Qualified() {
			t.Fatalf("func %s: qualification differs between kernels", name)
		}

		cpLat := &constprop.Problem{NumVars: nv, Conditional: true}
		lvLat := &liveness.Problem{NumVars: nv}
		aeLat := &availexpr.Problem{U: bfr.AvailU}
		ivLat := &intervals.Problem{NumVars: nv, Conditional: true}

		type tier struct {
			name string
			g    *cfg.Graph
		}
		tiers := []tier{{"cfg", bfr.Fn.G}}
		if bfr.Qualified() {
			tiers = append(tiers, tier{"hpg", bfr.HPG.G}, tier{"rhpg", bfr.Red.G})
		}

		cpSols := [][2]*constprop.Result{{bfr.OrigSol, pfr.OrigSol}, {bfr.HPGSol, pfr.HPGSol}, {bfr.RedSol, pfr.RedSol}}
		lvSols := [][2]*liveness.Result{{bfr.LiveCFG, pfr.LiveCFG}, {bfr.LiveHPG, pfr.LiveHPG}, {bfr.LiveRed, pfr.LiveRed}}
		aeSols := [][2]*availexpr.Result{{bfr.AvailCFG, pfr.AvailCFG}, {bfr.AvailHPG, pfr.AvailHPG}, {bfr.AvailRed, pfr.AvailRed}}
		for i, tr := range tiers {
			if b, p := cpSols[i][0], cpSols[i][1]; b != nil || p != nil {
				check(name, "constprop", tr.name, cpLat, solOf(b), solOf(p))
			}
			if b, p := lvSols[i][0], lvSols[i][1]; b != nil || p != nil {
				check(name, "liveness", tr.name, lvLat, lvSolOf(b), lvSolOf(p))
			}
			if b, p := aeSols[i][0], aeSols[i][1]; b != nil || p != nil {
				check(name, "availexpr", tr.name, aeLat, aeSolOf(b), aeSolOf(p))
			}
			// Intervals is not an engine client; solve both backends
			// directly on each tier graph to cover the widening path.
			ivB := intervals.AnalyzeBoxed(tr.g, nv, true)
			ivP := intervals.AnalyzePacked(tr.g, nv, true)
			check(name, "intervals", tr.name, ivLat, ivB.Sol, ivP.Sol)
		}
	}
}

func solOf(r *constprop.Result) *dataflow.Solution {
	if r == nil {
		return nil
	}
	return r.Boxed()
}

func lvSolOf(r *liveness.Result) *dataflow.Solution {
	if r == nil {
		return nil
	}
	return r.Sol
}

func aeSolOf(r *availexpr.Result) *dataflow.Solution {
	if r == nil {
		return nil
	}
	return r.Sol
}
