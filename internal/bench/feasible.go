package bench

import (
	"context"
	"time"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/feasible"
)

// FeasibleClients is the client order of every FeasibleRow.Clients slice.
var FeasibleClients = engine.OracleClients

// FeasibleClient is one client's precision deltas in the two-axis
// ablation: the number of *original CFG vertices* about which an axis
// combination learned something strictly more precise than the plain
// CFG solution. All three columns count on that one shared universe —
// a hot-path graph holds many copies of a CFG vertex, so the oracle's
// per-base-vertex ImprovedAt bitmap is used (not its raw per-copy
// Improved counter) and the columns are directly comparable.
type FeasibleClient struct {
	Client string
	// FreqOnly: CFG vertices improved by some copy in the unmasked
	// reduced-HPG solution (the paper's axis alone). FeasOnly: CFG
	// vertices improved by the infeasible-edge-masked CFG solution
	// (this PR's axis alone — no profile involved). Both: CFG vertices
	// improved by the combined configuration's artifacts — the masked
	// CFG solution or some copy in the masked reduced-HPG solution —
	// which is exactly what the engine produces with Feasible on. By
	// construction Both ⊇ FeasOnly, and Both ⊇ FreqOnly pointwise
	// (masking only raises facts), so Both exceeding the larger of the
	// two on a benchmark means each axis reached vertices the other
	// could not.
	FreqOnly, FeasOnly, Both int
}

// FeasibleRow is one benchmark's two-axis ablation.
type FeasibleRow struct {
	Name string
	// InfeasibleCFG / InfeasibleRed count the edges proved infeasible,
	// summed over the program's original CFGs (detected there) and over
	// the qualified functions' reduced graphs (detected on the HPG and
	// projected onto the reduced graph, as the engine does).
	InfeasibleCFG, InfeasibleRed int
	// DetectTime is the total branch-correlation detection cost,
	// projections included;
	// SolveTime the total cost of re-solving all four clients on the
	// pruned views (both tiers).
	DetectTime, SolveTime time.Duration
	Clients               []FeasibleClient
}

// Feasible runs the two-axis precision ablation at the recommended
// point. The engine runs feasibility-off, so the attached solutions are
// the plain frequency-axis artifacts; the harness then derives the
// feasibility-only and combined solutions on the engine's own graphs
// (the axes stay decoupled — no masked artifact ever feeds a baseline).
func Feasible(ctx context.Context, instances []*Instance) ([]FeasibleRow, error) {
	o := engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll}
	var rows []FeasibleRow
	for _, in := range instances {
		res, err := in.Analyze(ctx, o)
		if err != nil {
			return nil, err
		}
		row := FeasibleRow{Name: in.B.Name, Clients: make([]FeasibleClient, len(FeasibleClients))}
		for i, c := range FeasibleClients {
			row.Clients[i].Client = c
		}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			nv := fn.NumVars()
			or := engine.NewOracle(fn, fr.AvailU, o.Kernel)
			// The unmasked CFG facts are the common yardstick of all
			// three columns.
			base := or.Facts(fn.G, fr.OrigSol, nil, fr.LiveCFG, fr.AvailCFG)

			// Feasibility only: prune the original CFG, re-solve, compare
			// in place.
			feas, facts := row.prune(or, fn.G, nv, func() *feasible.Edges { return feasible.Detect(fn.G, nv) })
			row.InfeasibleCFG += feas.Count
			feasOnly := or.Compare("cfg", base, facts, oracle.Identity)

			var freqOnly, both []*oracle.Report
			if fr.Qualified() {
				red := fr.Red
				orig := func(n cfg.NodeID) cfg.NodeID { return red.OrigNode[n] }
				// Frequency only: the engine's unmasked reduced-tier
				// solutions vs the CFG.
				freqOnly = or.Compare("rhpg", base, or.Facts(red.G, fr.RedSol, nil, fr.LiveRed, fr.AvailRed), orig)
				// Both axes: prune the reduced graph through the HPG's
				// mask projected onto it, re-solve, compare back to the
				// CFG through the vertex correspondence.
				feasR, facts := row.prune(or, red.G, nv, func() *feasible.Edges {
					return feasible.Project(red, feasible.Detect(fr.HPG.G, nv))
				})
				row.InfeasibleRed += feasR.Count
				both = or.Compare("rhpg", base, facts, orig)
			}
			for i := range row.Clients {
				c := &row.Clients[i]
				c.FeasOnly += improvedVertices(feasOnly[i])
				if both == nil {
					// No profile tier: the combined configuration
					// degenerates to the feasibility axis on this function.
					c.Both += improvedVertices(feasOnly[i])
					continue
				}
				c.FreqOnly += improvedVertices(freqOnly[i])
				c.Both += improvedVertices(feasOnly[i], both[i])
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// prune detects an infeasible-edge mask on g and re-solves every client
// through it, charging each step to the row's time columns.
func (row *FeasibleRow) prune(or *engine.Oracle, g *cfg.Graph, nv int, detect func() *feasible.Edges) (*feasible.Edges, engine.TierFacts) {
	t0 := time.Now()
	mask := detect()
	row.DetectTime += time.Since(t0)
	t0 = time.Now()
	facts := or.Facts(g, constprop.AnalyzeMasked(g, nv, true, mask.Mask()), mask, nil, nil)
	row.SolveTime += time.Since(t0)
	return mask, facts
}

// improvedVertices counts the CFG vertices improved by any of the given
// oracle runs — the union of their per-base-vertex ImprovedAt bitmaps.
// All reports must share the base solution (and hence bitmap length).
func improvedVertices(reports ...*oracle.Report) int {
	total := 0
	for i := range reports[0].ImprovedAt {
		for _, r := range reports {
			if r.ImprovedAt[i] {
				total++
				break
			}
		}
	}
	return total
}
