package constprop_test

import (
	"sync"
	"testing"

	"pathflow/internal/cfg"
	. "pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/lang"
	"pathflow/internal/progen"
)

// TestPackedMatchesBoxed checks the packed SoA kernel against the boxed
// reference on generated programs: pointwise-equal facts, reachability,
// edge executability, and iteration counts, in both propagation modes —
// and its narrow rows against a full-width boxed solve.
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
				if err := CheckNarrow(fn.G, nv, conditional, nil); err != nil {
					t.Errorf("seed %d func %s conditional=%t: narrow rows: %v", seed, name, conditional, err)
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

// TestNarrowResultConcurrentReaders has several goroutines solve one
// fresh graph, which builds its column map on first use, and then read
// one shared result's whole environments through EnvAt at once, as
// concurrent readers of a cached solution do: under -race it pins that
// the map and the kept full-width rows are built and published safely,
// and every reader must see the environments a single reader sees.
func TestNarrowResultConcurrentReaders(t *testing.T) {
	prog, err := lang.Compile(progen.Generate(progen.DefaultConfig(3)))
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	nv := fn.NumVars()
	want := AnalyzePacked(fn.G, nv, true).Boxed()
	g := fn.G.Clone() // no column map yet
	const readers = 4
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			AnalyzePacked(g, nv, true)
		}()
	}
	wg.Wait()
	shared := AnalyzePacked(g, nv, true)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n, f := range want.In {
				if f == nil {
					continue
				}
				if got := shared.EnvAt(cfg.NodeID(n)); !got.Equal(f.(Env)) {
					t.Errorf("node %d: environment %v, want %v", n, got, f)
					return
				}
			}
			if shared.FullBytes() == 0 {
				t.Error("whole-environment rows not kept after EnvAt")
			}
		}()
	}
	wg.Wait()
}
