package intervals_test

import (
	"testing"

	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	. "pathflow/internal/intervals"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// TestPackedMatchesBoxed checks the packed SoA kernel against the boxed
// reference on generated programs — the boxed solver's own facts against
// the packed rows boxed: the widening/narrowing schedule must match
// exactly (iteration counts included), both with and without branch
// refinement. On the first three seeds the clamped threshold-index
// domain is held to dataflow.Solve over ClampedProblem the same way
// (Detect only ever runs it with refinement on; the boxed clamped
// solve is too slow to run on all 25).
func TestPackedMatchesBoxed(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(seed)))
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			nv := fn.NumVars()
			for _, conditional := range []bool{true, false} {
				lat := &Problem{NumVars: nv, Conditional: conditional}
				boxed := dataflow.Solve(fn.G, lat)
				packed := AnalyzePacked(fn.G, nv, conditional)
				rep := oracle.Differential("intervals", name, lat, boxed, packed.Boxed())
				if err := rep.Err(); err != nil {
					t.Errorf("seed %d func %s conditional=%t: %v", seed, name, conditional, err)
				}
				if seed > 3 {
					continue
				}
				thr := Thresholds(fn.G)
				clat := &ClampedProblem{NumVars: nv, Conditional: conditional, T: thr}
				cboxed := dataflow.Solve(fn.G, clat)
				cpacked := AnalyzeClampedMasked(fn.G, nv, thr, conditional, nil)
				if err := oracle.Differential("intervals/clamped", name, clat, cboxed, cpacked.Boxed()).Err(); err != nil {
					t.Errorf("seed %d func %s conditional=%t clamped: %v", seed, name, conditional, err)
				}
			}
		}
	}
}
