// Paperfig reproduces the running example of Ammons & Larus (PLDI 1998)
// end to end, printing the artifacts behind Figures 1-8:
//
//	Figure 1 — the example CFG and its recording edges
//	Figure 2 — the path profile
//	Figure 3 — the retrieval tree (qualification automaton)
//	Figure 5 — the hot path graph and its new constants
//	Figure 6 — the translated path profile
//	Figure 8 — the reduced hot path graph
//
//	go run ./examples/paperfig
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"pathflow/internal/automaton"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

func main() {
	fn, _, edges := paperex.Build()
	R := paperex.Recording(edges)

	fmt.Println("== Figure 1: the control-flow graph ==")
	fmt.Print(fn.G.String())
	var recNames []string
	for name := range edges {
		if R[edges[name]] {
			recNames = append(recNames, name)
		}
	}
	sort.Strings(recNames)
	fmt.Printf("recording edges: %s\n\n", strings.Join(recNames, ", "))

	fmt.Println("== Figure 2: the path profile ==")
	pr := paperex.Profile(edges)
	fmt.Print(pr.String(fn.G))
	fmt.Println()

	fmt.Println("== Figure 3: the retrieval tree ==")
	ps := paperex.Paths(edges)
	auto, err := automaton.New(fn.G, R, ps[:])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d states (q• plus 17 trie states), %d keywords\n",
		auto.NumStates(), auto.NumKeywords())
	fmt.Print(auto.Dot(fn.G))
	fmt.Println()

	fmt.Println("== Figure 5: the hot path graph ==")
	h, err := trace.Build(fn, auto)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, nd := range h.G.Nodes {
		names = append(names, nd.Name)
	}
	sort.Strings(names)
	fmt.Printf("%d vertices: %s\n", h.G.NumNodes(), strings.Join(names, " "))
	fmt.Printf("reducible? original=%v traced=%v\n\n", fn.G.Reducible(), h.G.Reducible())

	sol := constprop.AnalyzePacked(h.G, fn.NumVars(), true)
	fmt.Println("new constants on the HPG (none exist in the original graph):")
	printConsts(h.G, sol, fn.VarNames)
	fmt.Println()

	fmt.Println("== Figure 6: the translated path profile ==")
	tp, err := profile.Translate(pr, fn.G, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(tp.String(h.G))
	fmt.Println()

	fmt.Println("== Section 5 / Figure 8: reduction ==")
	// CR = 0.6 makes H13 and H14 the only hot vertices, as in the text.
	red, err := reduce.Reduce(h, sol, tp, reduce.Options{CR: 0.6})
	if err != nil {
		log.Fatal(err)
	}
	weights := map[string]int64{}
	for _, nd := range h.G.Nodes {
		if red.Weights[nd.ID] > 0 {
			weights[nd.Name] = red.Weights[nd.ID]
		}
	}
	fmt.Printf("vertex weights: %v\n", weights)
	var hot []string
	for _, n := range red.Hot {
		hot = append(hot, h.G.Node(n).Name)
	}
	sort.Strings(hot)
	fmt.Printf("hot vertices at CR=0.6: %s\n", strings.Join(hot, ", "))

	var classes []string
	for _, members := range red.Members {
		var ms []string
		for _, m := range members {
			ms = append(ms, h.G.Node(m).Name)
		}
		sort.Strings(ms)
		classes = append(classes, "{"+strings.Join(ms, ",")+"}")
	}
	sort.Strings(classes)
	fmt.Printf("final partition (%d classes): %s\n", len(classes), strings.Join(classes, " "))
	fmt.Printf("reduced graph: %d vertices (HPG had %d, original %d)\n\n",
		red.G.NumNodes(), h.G.NumNodes(), fn.G.NumNodes())

	rsol := constprop.AnalyzePacked(red.G, fn.NumVars(), true)
	fmt.Println("constants preserved on the reduced graph:")
	printConsts(red.G, rsol, fn.VarNames)
}

func printConsts(g *cfg.Graph, sol *constprop.Result, varNames []string) {
	type row struct{ name, text string }
	var rows []row
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		flags := sol.ConstFlags(nd.ID, true)
		vals := sol.InstrValues(nd.ID)
		for i := range nd.Instrs {
			if !flags[i] {
				continue
			}
			in := &nd.Instrs[i]
			name := fmt.Sprintf("v%d", in.Dst)
			if int(in.Dst) < len(varNames) && varNames[in.Dst] != "" {
				name = varNames[in.Dst]
			}
			rows = append(rows, row{nd.Name, fmt.Sprintf("  %-6s %s = %d", nd.Name, name, vals[i].K)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].text < rows[j].text })
	for _, r := range rows {
		fmt.Println(r.text)
	}
}
