package feasible

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow/kernel"
)

// MaxRounds is Detect's bound on evidence-folding rounds.
const MaxRounds = maxRounds

// Syntactic returns g's syntactic correlation pass on the map reference
// solver (syntactic_ref_test.go), with its node summaries built once, as
// Detect builds them: each call runs the must-availability fixpoint
// under mask and reports whether it grew.
func Syntactic(g *cfg.Graph, numVars int) func(mask []bool) bool {
	info, _ := buildNodeInfo(g, numVars)
	return func(mask []bool) bool { return syntacticFixpoint(g, info, mask) }
}

// SyntacticPacked returns Detect's packed syntactic pass of g, built
// over mask: each call runs its fixpoint under the current mask, grows
// it, and reports whether it grew.
func SyntacticPacked(g *cfg.Graph, numVars int, mask []bool) func() bool {
	info, _ := buildNodeInfo(g, numVars)
	return newSyntactic(g, info, mask).fixpoint
}

// SyntacticSolver returns the kernel solver behind g's packed syntactic
// pass over mask, the loop each of the pass's rounds re-runs.
func SyntacticSolver(g *cfg.Graph, numVars int, mask []bool) *kernel.Solver {
	info, _ := buildNodeInfo(g, numVars)
	return newSyntactic(g, info, mask).solver
}
