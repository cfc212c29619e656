package bench

import (
	"context"
	"time"

	"pathflow/internal/availexpr"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/engine"
	"pathflow/internal/feasible"
	"pathflow/internal/intervals"
	"pathflow/internal/liveness"
)

// FeasibleClients is the client order of every FeasibleRow.Clients slice.
var FeasibleClients = []string{"constprop", "intervals", "liveness", "availexpr"}

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
	// InfeasibleCFG / InfeasibleRed count the edges the detector proved
	// infeasible, summed over the program's original CFGs and over the
	// qualified functions' reduced graphs.
	InfeasibleCFG, InfeasibleRed int
	// DetectTime is the total branch-correlation detection cost;
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
		row := FeasibleRow{Name: in.B.Name}
		for _, c := range FeasibleClients {
			row.Clients = append(row.Clients, FeasibleClient{Client: c})
		}
		cp, iv, lv, av := &row.Clients[0], &row.Clients[1], &row.Clients[2], &row.Clients[3]
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			nv := fn.NumVars()
			g := fn.G

			cpLat := &constprop.Problem{NumVars: nv}
			thr := intervals.Thresholds(g)
			ivLat := &intervals.ClampedProblem{NumVars: nv, Conditional: true, T: thr}
			lvLat := &liveness.Problem{NumVars: nv}
			u := fr.AvailU
			avLat := &availexpr.Problem{U: u}

			// Unmasked CFG baselines — the common yardstick of all three
			// columns.
			cpBase := fr.OrigSol
			cpBoxed := cpBase.Boxed()
			ivBase := intervals.AnalyzeClamped(g, nv, thr, true)
			lvBase, avBase := fr.LiveCFG, fr.AvailCFG

			// Feasibility only: prune the original CFG, re-solve, compare
			// in place.
			t0 := time.Now()
			feas := feasible.Detect(g, nv)
			row.DetectTime += time.Since(t0)
			row.InfeasibleCFG += feas.Count
			t0 = time.Now()
			cpF := constprop.AnalyzeMasked(g, nv, true, feas.Mask())
			ivF := intervals.AnalyzeClampedMasked(g, nv, thr, true, feas.Mask())
			lvF := liveness.AnalyzePacked(g, nv, cpF.Sol)
			avF := availexpr.AnalyzePacked(g, u, cpF.Sol)
			row.SolveTime += time.Since(t0)
			cpRepF := oracle.Check("constprop", "cfg", cpLat, cpBoxed, cpF.Boxed(), oracle.Identity)
			ivRepF := oracle.Check("intervals", "cfg", ivLat, ivBase.Sol, ivF.Sol, oracle.Identity)
			lvRepF := oracle.Check("liveness", "cfg", lvLat, lvBase.Sol, lvF.Sol, oracle.Identity)
			avRepF := oracle.Check("availexpr", "cfg", avLat, avBase.Sol, avF.Sol, oracle.Identity)
			cp.FeasOnly += improvedVertices(cpRepF)
			iv.FeasOnly += improvedVertices(ivRepF)
			lv.FeasOnly += improvedVertices(lvRepF)
			av.FeasOnly += improvedVertices(avRepF)

			if !fr.Qualified() {
				// No profile tier: the combined configuration degenerates
				// to the feasibility axis on this function.
				cp.Both += improvedVertices(cpRepF)
				iv.Both += improvedVertices(ivRepF)
				lv.Both += improvedVertices(lvRepF)
				av.Both += improvedVertices(avRepF)
				continue
			}
			red := fr.Red
			orig := func(n cfg.NodeID) cfg.NodeID { return red.OrigNode[n] }

			// Frequency only: the engine's unmasked reduced-tier
			// solutions vs the CFG.
			ivR := intervals.AnalyzeClamped(red.G, nv, thr, true)
			lvR, avR := fr.LiveRed, fr.AvailRed
			cp.FreqOnly += improvedVertices(oracle.Check("constprop", "rhpg", cpLat, cpBoxed, fr.RedSol.Boxed(), orig))
			iv.FreqOnly += improvedVertices(oracle.Check("intervals", "rhpg", ivLat, ivBase.Sol, ivR.Sol, orig))
			lv.FreqOnly += improvedVertices(oracle.Check("liveness", "rhpg", lvLat, lvBase.Sol, lvR.Sol, orig))
			av.FreqOnly += improvedVertices(oracle.Check("availexpr", "rhpg", avLat, avBase.Sol, avR.Sol, orig))

			// Both axes: prune the reduced graph, re-solve, compare back
			// to the CFG through the vertex correspondence.
			t0 = time.Now()
			feasR := feasible.Detect(red.G, nv)
			row.DetectTime += time.Since(t0)
			row.InfeasibleRed += feasR.Count
			t0 = time.Now()
			cpB := constprop.AnalyzeMasked(red.G, nv, true, feasR.Mask())
			ivB := intervals.AnalyzeClampedMasked(red.G, nv, thr, true, feasR.Mask())
			lvB := liveness.AnalyzePacked(red.G, nv, cpB.Sol)
			avB := availexpr.AnalyzePacked(red.G, u, cpB.Sol)
			row.SolveTime += time.Since(t0)
			cp.Both += improvedVertices(cpRepF, oracle.Check("constprop", "rhpg", cpLat, cpBoxed, cpB.Boxed(), orig))
			iv.Both += improvedVertices(ivRepF, oracle.Check("intervals", "rhpg", ivLat, ivBase.Sol, ivB.Sol, orig))
			lv.Both += improvedVertices(lvRepF, oracle.Check("liveness", "rhpg", lvLat, lvBase.Sol, lvB.Sol, orig))
			av.Both += improvedVertices(avRepF, oracle.Check("availexpr", "rhpg", avLat, avBase.Sol, avB.Sol, orig))
		}
		rows = append(rows, row)
	}
	return rows, nil
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
