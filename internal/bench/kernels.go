package bench

import (
	"context"
	"fmt"
	"time"

	"pathflow/internal/availexpr"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/intervals"
	"pathflow/internal/liveness"
)

// KernelRow is one benchmark's solver-backend comparison on its
// analysis-tier graphs (the HPG of every qualified function, the CFG
// otherwise — the graphs the analyze stage actually solves).
type KernelRow struct {
	Name  string
	Nodes int // nodes across the timed graph set
	// Boxed and Packed are the wall time of one constant-propagation
	// sweep over the whole graph set on each backend.
	Boxed, Packed time.Duration
	// Speedup is Boxed / Packed.
	Speedup float64
	// Checked counts the vertices the differential gate compared across
	// all four clients; Violations counts pointwise disagreements (any
	// non-zero value is a kernel bug).
	Checked, Violations int
}

// AnalyzeGraph is one graph the analyze stage solves, with enough
// context to re-run every client on it. Exported so the root kernel
// benchmark times exactly the graph set the engine analyzes.
type AnalyzeGraph struct {
	Func    string
	G       *cfg.Graph
	NumVars int
}

// AnalyzeGraphs returns the analysis-tier graph set for in at the
// paper's recommended operating point (CA=0.97, CR=0.95): the HPG of
// every qualified function, the original CFG otherwise.
func AnalyzeGraphs(ctx context.Context, in *Instance) ([]AnalyzeGraph, error) {
	res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
	if err != nil {
		return nil, err
	}
	var graphs []AnalyzeGraph
	for _, name := range in.Prog.Order {
		fr := res.Funcs[name]
		g := fr.Fn.G
		if fr.Qualified() {
			g = fr.HPG.G
		}
		graphs = append(graphs, AnalyzeGraph{Func: name, G: g, NumVars: in.Prog.Funcs[name].NumVars()})
	}
	return graphs, nil
}

// kernelReps is how many timed constant-propagation sweeps each backend
// runs; the graphs are small enough that single solves sit near the
// timer floor.
const kernelReps = 50

// Kernels times boxed vs packed constant propagation over each
// benchmark's analysis graphs and runs the oracle's differential gate —
// all four clients, packed vs boxed, pointwise — as a correctness
// check riding along with the measurement.
func Kernels(ctx context.Context, instances []*Instance) ([]KernelRow, error) {
	var rows []KernelRow
	for _, in := range instances {
		graphs, err := AnalyzeGraphs(ctx, in)
		if err != nil {
			return nil, err
		}
		nodes := 0
		for _, kg := range graphs {
			nodes += kg.G.NumNodes()
		}

		row := KernelRow{Name: in.B.Name, Nodes: nodes}
		for _, kg := range graphs {
			checked, bad, err := kernelDifferential(in.B.Name, kg)
			if err != nil {
				return nil, err
			}
			row.Checked += checked
			row.Violations += bad
		}

		t0 := time.Now()
		for i := 0; i < kernelReps; i++ {
			for _, kg := range graphs {
				constprop.Analyze(kg.G, kg.NumVars, true)
			}
		}
		row.Boxed = time.Since(t0)
		t0 = time.Now()
		for i := 0; i < kernelReps; i++ {
			for _, kg := range graphs {
				constprop.AnalyzePacked(kg.G, kg.NumVars, true)
			}
		}
		row.Packed = time.Since(t0)
		if row.Packed > 0 {
			row.Speedup = float64(row.Boxed) / float64(row.Packed)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// kernelDifferential solves every client on both backends over one
// graph and counts the vertices compared and the disagreements found.
// The packed solutions are gated with the full Differential: facts,
// reachability, edge executability and iteration counts must all match
// the boxed reference.
func kernelDifferential(name string, kg AnalyzeGraph) (checked, violations int, err error) {
	type diff struct {
		client string
		lat    oracle.Lattice
		boxed  *dataflow.Solution
		packed *dataflow.Solution
	}
	cpB := constprop.Analyze(kg.G, kg.NumVars, true)
	cpP := constprop.AnalyzePacked(kg.G, kg.NumVars, true)
	ivB := intervals.AnalyzeWith(kg.G, kg.NumVars, true, dataflow.KernelBoxed)
	ivP := intervals.AnalyzePacked(kg.G, kg.NumVars, true)
	// The optional clients share one guide (the boxed constprop
	// solution) so both backends solve the identical problem.
	guide := cpB.Sol
	lvB := liveness.Analyze(kg.G, kg.NumVars, guide)
	lvP := liveness.AnalyzePacked(kg.G, kg.NumVars, guide)
	u := availexpr.NewUniverse(kg.G, kg.NumVars)
	aeB := availexpr.Analyze(kg.G, u, guide)
	aeP := availexpr.AnalyzePacked(kg.G, u, guide)
	for _, d := range []diff{
		{"constprop", &constprop.Problem{NumVars: kg.NumVars, Conditional: true}, cpB.Boxed(), cpP.Boxed()},
		{"intervals", &intervals.Problem{NumVars: kg.NumVars, Conditional: true}, ivB.Sol, ivP.Sol},
		{"liveness", &liveness.Problem{NumVars: kg.NumVars, Guide: guide}, lvB.Sol, lvP.Sol},
		{"availexpr", &availexpr.Problem{U: u, Guide: guide}, aeB.Sol, aeP.Sol},
	} {
		rep := oracle.Differential(d.client, "analyze", d.lat, d.boxed, d.packed)
		checked += rep.Checked
		violations += len(rep.Violations)
		if !rep.OK() {
			return checked, violations, fmt.Errorf("bench %s: kernel differential: %w", name, rep.Err())
		}
	}
	return checked, violations, nil
}
