package feasible

import "pathflow/internal/cfg"

// MaxRounds is Detect's bound on evidence-folding rounds.
const MaxRounds = maxRounds

// Syntactic returns g's syntactic correlation pass with its node
// summaries built once, as Detect builds them: each call runs the
// must-availability fixpoint under mask and reports whether it grew.
func Syntactic(g *cfg.Graph, numVars int) func(mask []bool) bool {
	info, _ := buildNodeInfo(g, numVars)
	return func(mask []bool) bool { return syntacticFixpoint(g, info, mask) }
}
