package classify

import (
	"sort"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
)

// SiteConstDyn returns the dynamic executions of instructions with
// constant results on graph g: for every node, the number of constant
// instructions at that site times the node's execution frequency. This is
// the quantity behind the paper's Figure 9 ("increase in instructions
// with constant results, weighted dynamically"). With excludeLocal set it
// counts only non-local constants, the quantity the paper's headline
// "2-112 times more non-local constants" compares.
func SiteConstDyn(g *cfg.Graph, sol *constprop.Result, freq []int64, excludeLocal bool) int64 {
	var total int64
	for _, nd := range g.Nodes {
		if freq[nd.ID] == 0 || len(nd.Instrs) == 0 {
			continue
		}
		flags := sol.ConstFlags(nd.ID, excludeLocal)
		var n int64
		for _, f := range flags {
			if f {
				n++
			}
		}
		total += n * freq[nd.ID]
	}
	return total
}

// BlockConstWeights returns, per node of g, the dynamic executions of
// non-local constant instructions: the per-block weights behind the
// paper's Figure 7 distribution and the §5 reduction heuristic.
func BlockConstWeights(g *cfg.Graph, sol *constprop.Result, freq []int64) []int64 {
	out := make([]int64, g.NumNodes())
	for _, nd := range g.Nodes {
		if len(nd.Instrs) == 0 {
			continue
		}
		flags := sol.ConstFlags(nd.ID, true)
		var n int64
		for _, f := range flags {
			if f {
				n++
			}
		}
		out[nd.ID] = n * freq[nd.ID]
	}
	return out
}

// DecidedBranches counts branch terminators whose condition is a known
// constant under the solution — branches that could be eliminated or
// threaded away. Path qualification turns branches that are only
// predictable *along a path* into decided branches at the duplicated
// sites, which is how the paper's §7 relates this work to Mueller &
// Whalley's branch elimination by code replication. Returns static sites
// and, when freq is non-nil, dynamic executions.
func DecidedBranches(g *cfg.Graph, sol *constprop.Result, freq []int64) (static int, dyn int64) {
	for _, nd := range g.Nodes {
		if nd.Kind != cfg.TermBranch || !sol.Reached(nd.ID) {
			continue
		}
		// The condition's value at the block's exit: its last write in
		// the block or, when the block does not write it, its entry
		// value, one of the solution's columns.
		i := len(nd.Instrs) - 1
		for i >= 0 && nd.Instrs[i].Dst != nd.Cond {
			i--
		}
		var cond constprop.Value
		if i >= 0 {
			cond = sol.InstrValues(nd.ID)[i]
		} else {
			cond = sol.Value(nd.ID, nd.Cond)
		}
		if cond.IsConst() {
			static++
			if freq != nil {
				dyn += freq[nd.ID]
			}
		}
	}
	return static, dyn
}

// CumulativePoint is one point of a Figure 7 curve.
type CumulativePoint struct {
	Blocks   int     // number of hottest blocks included
	Fraction float64 // fraction of dynamic non-local constants covered
}

// CumulativeDistribution sorts block weights in descending order and
// returns the running coverage, which reproduces the paper's Figure 7:
// how many basic blocks account for the program's non-local constants.
// Zero-weight blocks are omitted.
func CumulativeDistribution(weights []int64) []CumulativePoint {
	ws := make([]int64, 0, len(weights))
	var total int64
	for _, w := range weights {
		if w > 0 {
			ws = append(ws, w)
			total += w
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] > ws[j] })
	pts := make([]CumulativePoint, 0, len(ws))
	var acc int64
	for i, w := range ws {
		acc += w
		pts = append(pts, CumulativePoint{Blocks: i + 1, Fraction: float64(acc) / float64(total)})
	}
	return pts
}
