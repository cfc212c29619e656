package engine

import (
	"pathflow/internal/availexpr"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/liveness"
)

// The solve* functions are the only place the Options.Kernel decision
// is made. The packed arena kernels are the production solver of every
// client; dataflow.KernelBoxed swaps in the boxed dataflow.Solve
// reference, so `check -kernel=boxed` and FuzzKernelEquivalence run the
// whole pipeline and its oracle on it.

// solveConstprop runs conditional constant propagation on g under an
// infeasible-edge mask (nil: unmasked).
func solveConstprop(k dataflow.Kernel, g *cfg.Graph, numVars int, mask []bool) *constprop.Result {
	if k == dataflow.KernelBoxed {
		return constprop.AnalyzeBoxedMasked(g, numVars, true, mask)
	}
	return constprop.AnalyzeMasked(g, numVars, true, mask)
}

// solveLiveness runs live-variable analysis on g, guided by a forward
// solution's executable sub-graph.
func solveLiveness(k dataflow.Kernel, g *cfg.Graph, numVars int, guide *dataflow.Solution) *liveness.Result {
	if k == dataflow.KernelBoxed {
		return liveness.AnalyzeBoxed(g, numVars, guide)
	}
	return liveness.AnalyzePacked(g, numVars, guide)
}

// solveAvailExpr runs available-expressions on g over the universe u,
// guided like solveLiveness.
func solveAvailExpr(k dataflow.Kernel, g *cfg.Graph, u *availexpr.Universe, guide *dataflow.Solution) *availexpr.Result {
	if k == dataflow.KernelBoxed {
		return availexpr.AnalyzeBoxed(g, u, guide)
	}
	return availexpr.AnalyzePacked(g, u, guide)
}
