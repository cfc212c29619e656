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
// branch-correlation detector: over random generated programs — biased
// toward the correlated nested re-tests the detector exists to prove
// (progen.Config.Correlated) — no edge a recorded training run actually
// traversed may ever be marked infeasible. The static gates certify the
// mask against the analyses' own semantics; this one certifies it
// against real executions, so a detector bug that fools every lattice
// still trips on the first run through a pruned edge.
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
		for name, fn := range prog.Funcs {
			feas := feasible.Detect(fn.G, fn.NumVars())
			pr := train.Funcs[name]
			if pr == nil || feas.Count == 0 {
				continue
			}
			counts := profile.EdgeCounts(pr, fn.G)
			if err := oracle.CheckTraces("feasible", name, counts, feas.Infeasible).Err(); err != nil {
				t.Errorf("seed %d func %s: %v", seed, name, err)
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
			thr := intervals.Thresholds(rg.g)
			got := feasible.Detect(rg.g, rg.nv)
			want := detectReference(rg.g, rg.nv)
			for e := range want {
				if got.Infeasible[e] != want[e] {
					t.Fatalf("%s: edge %d infeasible=%t, reference %t", rg.label, e, got.Infeasible[e], want[e])
				}
			}
			checkClampedMatchesBoxed(t, rg.label+" unmasked", rg.g, rg.nv, thr, nil)
			checkClampedMatchesBoxed(t, rg.label+" masked", rg.g, rg.nv, thr, got.Infeasible)
		}
	})
}
