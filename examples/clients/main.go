// Clients demonstrates that path qualification is analysis-agnostic
// (paper §8): the same hot path graph sharpens three different data-flow
// problems — constant propagation, sign analysis and value-range
// analysis — without any of them knowing about paths.
//
//	go run ./examples/clients
package main

import (
	"context"
	"fmt"
	"log"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/profile"
	"pathflow/internal/signs"
)

// The hot branch pins gain (a constant), keeps delta positive, and keeps
// level inside a small window; the cold branch destroys all three facts.
// Only path qualification can see any of it.
const src = `
func main() {
	n = arg(0);
	i = 0;
	acc = 0;
	while (i < n) {
		m = input() % 10;
		if (m < 9) {
			gain = 12;
			delta = (input() % 5) + 10;
			level = input() % 16;
		} else {
			gain = input();
			delta = input() - 100;
			level = input();
		}
		boost = gain * 2;      // constant 24 on the hot path
		step = delta * delta;  // positive on the hot path
		cap = level + 16;      // within [16,31] on the hot path
		acc = acc + boost + step + cap;
		i = i + 1;
	}
	print(acc);
}`

func main() {
	prog, err := lang.Compile(src)
	if err != nil {
		log.Fatal(err)
	}
	train := interp.Options{
		Args:  []ir.Value{400},
		Input: &interp.SliceInput{Values: stream(11)},
	}
	res, trainPP, err := engine.Serial().ProfileAndAnalyze(context.Background(), prog, train, engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		log.Fatal(err)
	}
	fr := res.Funcs["main"]
	if !fr.Qualified() {
		log.Fatal("no hot paths")
	}
	fn := fr.Fn
	g := fr.Red.G
	fmt.Printf("original CFG %d nodes; reduced hot path graph %d nodes\n\n",
		fn.G.NumNodes(), g.NumNodes())

	// Weight everything with the training profile translated onto the
	// reduced graph.
	ep, err := fr.TranslateEval(trainPP.Funcs["main"])
	if err != nil {
		log.Fatal(err)
	}
	baseFreq := profile.NodeFrequencies(trainPP.Funcs["main"], fn.G)
	qualFreq := profile.NodeFrequencies(ep, g)

	fmt.Printf("%-22s %16s %16s\n", "client", "baseline (dyn)", "qualified (dyn)")

	// Constant propagation.
	cBase := constprop.AnalyzePacked(fn.G, fn.NumVars(), true)
	cQual := fr.RedSol
	fmt.Printf("%-22s %16d %16d\n", "non-local constants",
		countConst(fn.G, cBase, baseFreq), countConst(g, cQual, qualFreq))

	// Sign analysis.
	sBase := signs.Analyze(fn.G, fn.NumVars(), true)
	sQual := signs.Analyze(g, fn.NumVars(), true)
	_, sb := signs.DefiniteCount(fn.G, sBase, baseFreq)
	_, sq := signs.DefiniteCount(g, sQual, qualFreq)
	fmt.Printf("%-22s %16d %16d\n", "definite signs", sb, sq)

	// Range analysis.
	iBase := intervals.AnalyzePacked(fn.G, fn.NumVars(), true)
	iQual := intervals.AnalyzePacked(g, fn.NumVars(), true)
	_, ib := intervals.BoundedCount(fn.G, iBase, baseFreq)
	_, iq := intervals.BoundedCount(g, iQual, qualFreq)
	fmt.Printf("%-22s %16d %16d\n", "bounded ranges", ib, iq)

	// Show the concrete facts at every executed duplicate of the block
	// computing boost/step/cap: the hot duplicate carries sharp facts,
	// the merged cold one carries none.
	fmt.Println("\nfacts at the executed duplicates of the boost/step/cap block:")
	for _, nd := range g.Nodes {
		if qualFreq[nd.ID] == 0 || !writesVar(fn, nd, "boost") {
			continue
		}
		cpVals := cQual.InstrValues(nd.ID)
		sgVals := sQual.InstrSigns(nd.ID)
		ivVals := iQual.InstrIntervals(nd.ID)
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if !in.HasDst() {
				continue
			}
			switch fn.VarName(in.Dst) {
			case "boost", "step", "cap":
				fmt.Printf("  %-5s @ %-7s (×%d)  const=%-6v sign=%-7v range=%v\n",
					fn.VarName(in.Dst), nd.Name, qualFreq[nd.ID], cpVals[i], sgVals[i], ivVals[i])
			}
		}
	}
}

// writesVar reports whether the node assigns the named source variable.
func writesVar(fn *cfg.Func, nd *cfg.Node, name string) bool {
	for i := range nd.Instrs {
		if nd.Instrs[i].HasDst() && fn.VarName(nd.Instrs[i].Dst) == name {
			return true
		}
	}
	return false
}

// countConst is the dynamically weighted non-local constant count.
func countConst(g *cfg.Graph, sol *constprop.Result, freq []int64) int64 {
	var total int64
	for _, nd := range g.Nodes {
		flags := sol.ConstFlags(nd.ID, true)
		for _, fl := range flags {
			if fl {
				total += freq[nd.ID]
			}
		}
	}
	return total
}

func stream(seed uint64) []ir.Value {
	vals := make([]ir.Value, 4096)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0x7fffffff)
	}
	return vals
}
