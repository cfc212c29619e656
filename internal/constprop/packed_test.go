package constprop_test

import (
	"testing"

	. "pathflow/internal/constprop"
	"pathflow/internal/dataflow"
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
				boxed := Analyze(fn.G, nv, conditional)
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

// TestAnalyzeWithDispatch pins the kernel selector: the zero value is
// the packed path, and both backends agree.
func TestAnalyzeWithDispatch(t *testing.T) {
	prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(7)))
	if err != nil {
		t.Fatal(err)
	}
	name := prog.Order[0]
	fn := prog.Funcs[name]
	nv := fn.NumVars()
	packed := AnalyzeWith(fn.G, nv, true, dataflow.KernelPacked)
	boxed := AnalyzeWith(fn.G, nv, true, dataflow.KernelBoxed)
	lat := &Problem{NumVars: nv, Conditional: true}
	if err := oracle.Differential("constprop", name, lat, boxed.Boxed(), packed.Boxed()).Err(); err != nil {
		t.Error(err)
	}
}
