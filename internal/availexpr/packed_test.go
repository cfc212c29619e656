package availexpr_test

import (
	"testing"

	. "pathflow/internal/availexpr"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// TestPackedMatchesBoxed checks the packed bitset kernel against the
// boxed reference on generated programs, unguided and guided: the boxed
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
			u := NewUniverse(fn.G, nv)
			guides := map[string]*dataflow.Solution{
				"unguided": nil,
				"guided":   constprop.AnalyzeBoxed(fn.G, nv, true).Sol,
			}
			for mode, guide := range guides {
				lat := &Problem{U: u, Guide: guide}
				boxed := dataflow.Solve(fn.G, lat)
				packed := AnalyzePacked(fn.G, u, guide)
				rep := oracle.Differential("availexpr", name, lat, boxed, packed.Boxed())
				if err := rep.Err(); err != nil {
					t.Errorf("seed %d func %s %s: %v", seed, name, mode, err)
				}
			}
		}
	}
}

// TestUniverseIndex pins the interner-backed expression numbering:
// first-seen dense IDs, misses at -1.
func TestUniverseIndex(t *testing.T) {
	prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(3)))
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Funcs[prog.Order[0]]
	u := NewUniverse(fn.G, fn.NumVars())
	for i, e := range u.Exprs {
		if got := u.Index(e); got != i {
			t.Errorf("Index(%v) = %d, want dense %d", e, got, i)
		}
	}
	if got := u.Index(Expr{}); got != -1 {
		t.Errorf("Index(zero Expr) = %d, want -1", got)
	}
}
