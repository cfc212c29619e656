// Quickstart: compile a small program, profile it, run the
// path-qualification pipeline, and print the constants that only
// path-qualified analysis can see.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

// The mode branch is heavily biased: in the training input, mode is
// almost always 0, so scale/window are 8 and 3 along the hot path — but
// no conventional analysis can know that, because the cold path assigns
// them from input().
const src = `
func main() {
	n = arg(0);
	i = 0;
	total = 0;
	while (i < n) {
		mode = input() % 10;
		if (mode < 9) {
			scale = 8;
			window = 3;
		} else {
			scale = input() % 32;
			window = input() % 5;
		}
		span = scale * window + 1;   // 25 on the hot path
		total = total + span + (input() % scale + 1);
		i = i + 1;
	}
	print(total);
}
`

func main() {
	prog, err := lang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}

	// Training input: a deterministic stream; arg(0)=500 iterations.
	train := interp.Options{
		Args:  []ir.Value{500},
		Input: &interp.SliceInput{Values: trainingStream()},
	}

	// One call profiles the program and runs the whole staged pipeline:
	// hot-path selection at CA, Aho-Corasick automaton, Holley-Rosen
	// tracing, Wegman-Zadek on the hot path graph, and reduction at CR.
	// The engine adds cancellation, parallelism and caching on top.
	eng := engine.New(engine.Config{Cache: true})
	res, _, err := eng.ProfileAndAnalyze(context.Background(), prog, train,
		engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		log.Fatal(err)
	}

	fr := res.Funcs["main"]
	fmt.Printf("original CFG: %d nodes\n", fr.Fn.G.NumNodes())
	if !fr.Qualified() {
		log.Fatal("no hot paths found")
	}
	fmt.Printf("hot paths:    %d (automaton: %d states)\n", len(fr.Hot), fr.Auto.NumStates())
	fmt.Printf("hot path graph: %d nodes; reduced: %d nodes\n\n",
		fr.HPG.G.NumNodes(), fr.Red.G.NumNodes())

	// Print every non-local constant the qualified analysis discovered.
	g := fr.Red.G
	sol := fr.RedSol
	fmt.Println("non-local constants on the reduced hot path graph:")
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		flags := sol.ConstFlags(nd.ID, true)
		vals := sol.InstrValues(nd.ID)
		for i := range nd.Instrs {
			if flags[i] {
				in := &nd.Instrs[i]
				fmt.Printf("  block %-6s %s = %d\n", nd.Name, fr.Fn.VarName(in.Dst), vals[i].K)
			}
		}
	}

	// The baseline Wegman-Zadek analysis finds none of these.
	base := constprop.AnalyzePacked(fr.Fn.G, fr.Fn.NumVars(), true)
	n := 0
	for _, nd := range fr.Fn.G.Nodes {
		flags := base.ConstFlags(nd.ID, true)
		for _, f := range flags {
			if f {
				n++
			}
		}
	}
	fmt.Printf("\nWegman-Zadek on the original graph finds %d non-local constants\n", n)
}

func trainingStream() []ir.Value {
	// 9-of-10 iterations take the hot mode.
	var vals []ir.Value
	x := uint64(42)
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals = append(vals, ir.Value(x&0x7fffffff))
	}
	return vals
}
