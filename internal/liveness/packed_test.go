package liveness_test

import (
	"testing"

	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/lang"
	. "pathflow/internal/liveness"
	"pathflow/internal/progen"
)

// TestPackedMatchesBoxed checks the packed bitset kernel against the
// boxed reference on generated programs, both unguided and guided by a
// constant-propagation solution (the engine's configuration): the boxed
// solver's own facts against the packed rows boxed.
func TestPackedMatchesBoxed(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(seed)))
		if err != nil {
			t.Fatalf("seed %d: generated program does not compile: %v", seed, err)
		}
		for _, name := range prog.Order {
			fn := prog.Funcs[name]
			nv := fn.NumVars()
			guides := map[string]*dataflow.Solution{
				"unguided": nil,
				"guided":   constprop.AnalyzeBoxed(fn.G, nv, true).Sol,
			}
			for mode, guide := range guides {
				lat := &Problem{NumVars: nv, Guide: guide}
				boxed := dataflow.Solve(fn.G, lat)
				packed := AnalyzePacked(fn.G, nv, guide)
				rep := oracle.Differential("liveness", name, lat, boxed, packed.Boxed())
				if err := rep.Err(); err != nil {
					t.Errorf("seed %d func %s %s: %v", seed, name, mode, err)
				}
			}
		}
	}
}
