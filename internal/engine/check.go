package engine

import (
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/feasible"
	"pathflow/internal/intervals"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
)

// CheckFuncResult runs the precision differential oracle over every
// derived graph tier of a completed result (HPG and reduced HPG, when
// qualification ran) and every client the repo ships: constant
// propagation, intervals, liveness and available expressions. Client
// solutions already attached to the result are reused; missing ones
// (including both interval solutions, which no pipeline stage retains)
// are computed on the spot.
//
// The returned reports certify — or refute, per vertex — the paper's
// central guarantee: projected through the trace correspondence, the
// hot-path solution is pointwise at least as precise as the CFG's.
// Functions without qualified artifacts return no reports (there is
// nothing to compare).
func CheckFuncResult(fr *FuncResult) []*oracle.Report {
	if fr == nil || fr.OrigSol == nil {
		return nil
	}
	type tier struct {
		name  string
		g     *cfg.Graph
		csol  *constprop.Result
		orig  func(cfg.NodeID) cfg.NodeID
		live  *liveness.Result
		avail *availexpr.Result
	}
	var tiers []tier
	if fr.HPG != nil && fr.HPGSol != nil {
		h := fr.HPG
		tiers = append(tiers, tier{
			name: "hpg", g: h.G, csol: fr.HPGSol,
			orig:  func(n cfg.NodeID) cfg.NodeID { return h.OrigNode[n] },
			live:  fr.LiveHPG,
			avail: fr.AvailHPG,
		})
	}
	if fr.Red != nil && fr.RedSol != nil {
		r := fr.Red
		tiers = append(tiers, tier{
			name: "rhpg", g: r.G, csol: fr.RedSol,
			orig:  func(n cfg.NodeID) cfg.NodeID { return r.OrigNode[n] },
			live:  fr.LiveRed,
			avail: fr.AvailRed,
		})
	}
	if len(tiers) == 0 && !fr.Opt.Feasible {
		return nil
	}

	nv := fr.Fn.NumVars()
	cpLat := &constprop.Problem{NumVars: nv}
	// Intervals are compared in their widening-free threshold-lattice
	// form: the production analysis widens, and widening is not monotone
	// in the graph, so its solutions are not comparable across tiers
	// (see intervals.ClampedProblem). The threshold set is derived once
	// from the original graph and shared by every tier.
	thr := intervals.Thresholds(fr.Fn.G)
	ivLat := &intervals.ClampedProblem{NumVars: nv, Conditional: true, T: thr}
	lvLat := &liveness.Problem{NumVars: nv}

	u := fr.AvailU
	if u == nil {
		u = availexpr.NewUniverse(fr.Fn.G, nv)
	}
	avLat := &availexpr.Problem{U: u}

	baseIv := intervals.AnalyzeClamped(fr.Fn.G, nv, thr, true)
	baseLive := fr.LiveCFG
	if baseLive == nil {
		baseLive = solveLiveness(fr.Opt.Kernel, fr.Fn.G, nv, fr.OrigSol.Sol)
	}
	baseAvail := fr.AvailCFG
	if baseAvail == nil {
		baseAvail = solveAvailExpr(fr.Opt.Kernel, fr.Fn.G, u, fr.OrigSol.Sol)
	}

	base := fr.OrigSol.Boxed()
	var reports []*oracle.Report
	for _, t := range tiers {
		reports = append(reports,
			oracle.Check("constprop", t.name, cpLat, base, t.csol.Boxed(), t.orig))

		iv := intervals.AnalyzeClamped(t.g, nv, thr, true)
		reports = append(reports,
			oracle.Check("intervals", t.name, ivLat, baseIv.Sol, iv.Sol, t.orig))

		live := t.live
		if live == nil {
			live = solveLiveness(fr.Opt.Kernel, t.g, nv, t.csol.Sol)
		}
		reports = append(reports,
			oracle.Check("liveness", t.name, lvLat, baseLive.Sol, live.Sol, t.orig))

		avail := t.avail
		if avail == nil {
			avail = solveAvailExpr(fr.Opt.Kernel, t.g, u, t.csol.Sol)
		}
		reports = append(reports,
			oracle.Check("availexpr", t.name, avLat, baseAvail.Sol, avail.Sol, t.orig))
	}

	if fr.Opt.Feasible {
		reports = append(reports, checkFeasible(fr, nv, thr, u, cpLat, ivLat, lvLat, avLat)...)
	}
	return reports
}

// checkFeasible certifies the feasibility masks of a Options.Feasible
// run, per graph tier, on two independent axes:
//
//   - The pruning soundness gate: the masked solution of every client
//     must be pointwise at least as precise as the unmasked solution of
//     the same graph (Identity projection — withholding facts along
//     edges can only raise the fixpoint, never lower it, so any
//     violation means the mask leaked into a transfer incorrectly).
//     The reports' Improved counters are the precision the feasibility
//     axis bought on that tier.
//
//   - The trace gate (oracle.CheckTraces): no edge the recorded
//     training run traversed may be marked infeasible — checked on the
//     CFG against the training profile, on the HPG against its
//     translation, and on the reduced graph against a fresh
//     translation of the training profile.
func checkFeasible(fr *FuncResult, nv int, thr []int64,
	u *availexpr.Universe,
	cpLat *constprop.Problem, ivLat *intervals.ClampedProblem,
	lvLat *liveness.Problem, avLat *availexpr.Problem) []*oracle.Report {

	type ftier struct {
		name   string
		g      *cfg.Graph
		mask   *feasible.Edges
		masked *constprop.Result // the pipeline's (masked) solution
		live   *liveness.Result
		avail  *availexpr.Result
		prof   *bl.Profile
	}
	tiers := []ftier{{
		name: "cfg", g: fr.Fn.G, mask: fr.FeasCFG, masked: fr.OrigSol,
		live: fr.LiveCFG, avail: fr.AvailCFG, prof: fr.Train,
	}}
	if fr.HPG != nil && fr.HPGSol != nil {
		tiers = append(tiers, ftier{
			name: "hpg", g: fr.HPG.G, mask: fr.FeasHPG, masked: fr.HPGSol,
			live: fr.LiveHPG, avail: fr.AvailHPG, prof: fr.HPGProf,
		})
	}
	if fr.Red != nil && fr.RedSol != nil {
		// The reduced tier's mask is not retained by the pipeline;
		// Detect is deterministic, so recomputing reproduces exactly the
		// mask the reduce stage solved through.
		t := ftier{
			name: "rhpg", g: fr.Red.G, mask: feasible.Detect(fr.Red.G, nv), masked: fr.RedSol,
			live: fr.LiveRed, avail: fr.AvailRed,
		}
		if fr.Train != nil {
			if rp, err := fr.TranslateEval(fr.Train); err == nil {
				t.prof = rp
			}
		}
		tiers = append(tiers, t)
	}

	var reports []*oracle.Report
	for _, t := range tiers {
		mask := t.mask.Mask()
		graph := t.name + "/feasible"

		unmasked := solveConstprop(fr.Opt.Kernel, t.g, nv, nil)
		reports = append(reports,
			oracle.Check("constprop", graph, cpLat, unmasked.Boxed(), t.masked.Boxed(), oracle.Identity))

		ivMasked := intervals.AnalyzeClampedMasked(t.g, nv, thr, true, mask)
		ivUnmasked := intervals.AnalyzeClamped(t.g, nv, thr, true)
		reports = append(reports,
			oracle.Check("intervals", graph, ivLat, ivUnmasked.Sol, ivMasked.Sol, oracle.Identity))

		live := t.live
		if live == nil {
			live = solveLiveness(fr.Opt.Kernel, t.g, nv, t.masked.Sol)
		}
		liveUnmasked := solveLiveness(fr.Opt.Kernel, t.g, nv, unmasked.Sol)
		reports = append(reports,
			oracle.Check("liveness", graph, lvLat, liveUnmasked.Sol, live.Sol, oracle.Identity))

		avail := t.avail
		if avail == nil {
			avail = solveAvailExpr(fr.Opt.Kernel, t.g, u, t.masked.Sol)
		}
		availUnmasked := solveAvailExpr(fr.Opt.Kernel, t.g, u, unmasked.Sol)
		reports = append(reports,
			oracle.Check("availexpr", graph, avLat, availUnmasked.Sol, avail.Sol, oracle.Identity))

		if t.prof != nil && t.mask != nil {
			reports = append(reports,
				oracle.CheckTraces("traces", graph, profile.EdgeCounts(t.prof, t.g), t.mask.Infeasible))
		}
	}
	return reports
}

// OracleErr returns the first violation's error among reports, or nil
// when every report is clean.
func OracleErr(reports []*oracle.Report) error {
	for _, r := range reports {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}
