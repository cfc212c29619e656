package feasible_test

import (
	"context"
	"fmt"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/feasible"
	"pathflow/internal/interp"
	"pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/profile"
	"pathflow/internal/progen"
)

func fuzzInput(seed uint64) *interp.SliceInput {
	vals := make([]ir.Value, 64)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0xffff)
	}
	return &interp.SliceInput{Values: vals}
}

// FuzzFeasibleSoundness is the empirical falsifier for the
// branch-correlation detector and the projection: over random generated
// programs — biased toward the correlated nested re-tests the detector
// exists to prove (progen.Config.Correlated) — no edge a recorded
// training run actually traversed may ever be marked infeasible, on the
// CFG (Detect), on the HPG (Detect, against the run translated onto it)
// or on the reduced HPG (the HPG mask projected onto it, against the run
// translated onto the quotient). The static gates certify the masks
// against the analyses' own semantics; this one certifies them against
// real executions, so a detector or projection bug that fools every
// lattice still trips on the first run through a pruned edge.
func FuzzFeasibleSoundness(f *testing.F) {
	f.Add(uint64(1), uint64(5))
	f.Add(uint64(2), uint64(3))
	f.Add(uint64(7), uint64(9))
	f.Add(uint64(19), uint64(1))
	f.Add(uint64(42), uint64(17))
	f.Add(uint64(301), uint64(11))
	f.Add(uint64(138), uint64(5))

	f.Fuzz(func(t *testing.T, seed, inputSeed uint64) {
		cfgc := progen.DefaultConfig(seed)
		cfgc.Correlated = 60
		src := progen.Generate(cfgc)
		prog, err := lang.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		train, _, err := bl.ProfileProgram(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    fuzzInput(inputSeed),
			MaxSteps: 2_000_000,
		})
		if err != nil {
			t.Skip("training run did not terminate in budget")
		}
		eng := engine.New(engine.Config{Workers: 1})
		res, err := eng.AnalyzeProgram(context.Background(), prog, train, engine.Options{CA: 0.97, CR: 0.95, Feasible: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		type tier struct {
			name string
			g    *cfg.Graph
			prof *bl.Profile
			mask *feasible.Edges
		}
		for _, name := range prog.Order {
			fr := res.Funcs[name]
			if fr.Train == nil {
				continue
			}
			tiers := []tier{{"cfg", fr.Fn.G, fr.Train, fr.FeasCFG}}
			if fr.Qualified() {
				rp, err := fr.TranslateEval(fr.Train)
				if err != nil {
					t.Fatalf("seed %d func %s: translating the training run: %v", seed, name, err)
				}
				tiers = append(tiers, tier{"hpg", fr.HPG.G, fr.HPGProf, fr.FeasHPG}, tier{"rhpg", fr.Red.G, rp, fr.FeasRed})
			}
			for _, tr := range tiers {
				// The pipeline checks a tier's structure only; its
				// blocks are the original's.
				if err := tr.g.Validate(fr.Fn.NumVars()); err != nil {
					t.Fatalf("seed %d func %s tier %s: %v", seed, name, tr.name, err)
				}
				counts := profile.EdgeCounts(tr.prof, tr.g)
				if err := oracle.CheckTraces("feasible", name+"/"+tr.name, counts, tr.mask.Infeasible).Err(); err != nil {
					t.Errorf("seed %d func %s: %v", seed, name, err)
				}
			}
		}
	})
}

// FuzzClampedEquivalence is the falsifier for Detect's packed clamped
// interval domain: on every graph tier (CFG, HPG, rHPG) of a random
// correlated-branch program, the packed clamped solve must equal the
// boxed ClampedProblem solve — facts, reachability, edge executability
// and iteration count — both unmasked and under Detect's mask, and
// Detect must produce exactly the boxed reference fold's mask.
func FuzzClampedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint64(5))
	f.Add(uint64(2), uint64(3))
	f.Add(uint64(7), uint64(9))
	f.Add(uint64(42), uint64(17))
	f.Add(uint64(138), uint64(5))

	f.Fuzz(func(t *testing.T, seed, inputSeed uint64) {
		cfgc := progen.DefaultConfig(seed)
		cfgc.Correlated = 40
		prog, err := lang.Compile(progen.Generate(cfgc))
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		train, _, err := bl.ProfileProgram(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    fuzzInput(inputSeed),
			MaxSteps: 2_000_000,
		})
		if err != nil {
			t.Skip("training run did not terminate in budget")
		}
		eng := engine.New(engine.Config{Workers: 1})
		res, err := eng.AnalyzeProgram(context.Background(), prog, train, engine.Options{CA: 0.97, CR: 0.95, Feasible: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rg := range tierGraphs(nil, map[*cfg.Graph]bool{}, fmt.Sprintf("seed %d", seed), res) {
			checkTierMatchesReference(t, rg)
		}
	})
}

// FuzzDetectCFG is FuzzClampedEquivalence narrowed to what one exec can
// afford many times a second: it compiles one generated single-function
// program and checks only its CFG, with no training run and no
// pipeline. The fuzzer picks the share of correlated if statements and
// the program's size (statements per block and nesting depth), so most
// execs solve a small graph. Each exec also pins the narrow solves to
// full-width ones (checkNarrowMatchesFull) and the packed syntactic pass
// to its map reference (checkSyntacticMatchesReference).
func FuzzDetectCFG(f *testing.F) {
	for _, seed := range []uint64{1, 2, 7, 42, 138} {
		f.Add(seed, uint8(40), uint8(seed))
	}

	f.Fuzz(func(t *testing.T, seed uint64, correlated, shape uint8) {
		cfgc := progen.DefaultConfig(seed)
		cfgc.Funcs = 0
		cfgc.MaxStmts = 1 + int(shape%6)
		cfgc.MaxDepth = 1 + int(shape/6%3)
		cfgc.Correlated = int(correlated) % 101
		prog, err := lang.Compile(progen.Generate(cfgc))
		if err != nil {
			t.Fatalf("%+v: generated program does not compile: %v", cfgc, err)
		}
		fn := prog.Main()
		rg := refGraph{label: fmt.Sprintf("%+v main/cfg", cfgc), g: fn.G, nv: fn.NumVars()}
		checkTierMatchesReference(t, rg)
		checkNarrowMatchesFull(t, rg)
		checkSyntacticMatchesReference(t, rg)
	})
}

// checkTierMatchesReference requires Detect to produce exactly the
// boxed reference fold's mask on rg, and the packed clamped solve to
// equal the boxed ClampedProblem solve, unmasked and under that mask.
func checkTierMatchesReference(t *testing.T, rg refGraph) {
	t.Helper()
	got := feasible.Detect(rg.g, rg.nv)
	want := detectReference(rg.g, rg.nv)
	for e := range want {
		if got.Infeasible[e] != want[e] {
			t.Fatalf("%s: edge %d infeasible=%t, reference %t", rg.label, e, got.Infeasible[e], want[e])
		}
	}
	thr := intervals.Thresholds(rg.g)
	checkClampedMatchesBoxed(t, rg.label+" unmasked", rg.g, rg.nv, thr, nil)
	checkClampedMatchesBoxed(t, rg.label+" masked", rg.g, rg.nv, thr, got.Infeasible)
}
