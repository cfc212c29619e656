package constprop_test

import (
	"testing"

	. "pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// TestPackedMatchesBoxed checks the packed SoA kernel against the boxed
// reference on generated programs: pointwise-equal facts, reachability,
// edge executability, and iteration counts, in both propagation modes.
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
				boxed := AnalyzeBoxed(fn.G, nv, conditional)
				packed := AnalyzePacked(fn.G, nv, conditional)
				lat := &Problem{NumVars: nv, Conditional: conditional}
				rep := oracle.Differential("constprop", name, lat, boxed.Boxed(), packed.Boxed())
				if err := rep.Err(); err != nil {
					t.Errorf("seed %d func %s conditional=%t: %v", seed, name, conditional, err)
				}
			}
		}
	}
}

// TestAnalyzeMaskedMatchesBoxed pins the masked packed entry: a nil
// mask is exactly AnalyzePacked, and under a mask that withholds every
// third edge it agrees pointwise with the boxed reference.
func TestAnalyzeMaskedMatchesBoxed(t *testing.T) {
	prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range prog.Order {
		fn := prog.Funcs[name]
		nv := fn.NumVars()
		lat := &Problem{NumVars: nv, Conditional: true}
		unmasked := AnalyzeMasked(fn.G, nv, true, nil)
		if err := oracle.Differential("constprop", name, lat, AnalyzePacked(fn.G, nv, true).Boxed(), unmasked.Boxed()).Err(); err != nil {
			t.Errorf("nil mask: %v", err)
		}
		mask := make([]bool, fn.G.NumEdges())
		for e := range mask {
			mask[e] = e%3 == 0
		}
		boxed := AnalyzeBoxedMasked(fn.G, nv, true, mask)
		packed := AnalyzeMasked(fn.G, nv, true, mask)
		if err := oracle.Differential("constprop", name, lat, boxed.Boxed(), packed.Boxed()).Err(); err != nil {
			t.Errorf("masked: %v", err)
		}
	}
}
