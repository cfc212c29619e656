package engine

import (
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/feasible"
	"pathflow/internal/intervals"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
)

// OracleClients is the client order of TierFacts and of the reports
// Oracle.Compare returns.
var OracleClients = []string{"constprop", "intervals", "liveness", "availexpr"}

// TierFacts is one graph's client solutions, indexed like OracleClients.
type TierFacts [4]*dataflow.Solution

// Oracle compares the client solutions of one function's graph tiers.
// It holds what every tier must share for the comparison to mean
// anything: the client lattices, the interval threshold set and the
// available-expression universe, all derived from the original CFG.
type Oracle struct {
	nv     int
	thr    []int64
	u      *availexpr.Universe
	kernel dataflow.Kernel
	lats   [4]oracle.Lattice
}

// NewOracle returns the oracle for fn. u is the universe the pipeline
// solved available expressions over (nil: derive it from fn's CFG);
// kernel solves the client facts a tier does not supply.
func NewOracle(fn *cfg.Func, u *availexpr.Universe, kernel dataflow.Kernel) *Oracle {
	nv := fn.NumVars()
	if u == nil {
		u = availexpr.NewUniverse(fn.G, nv)
	}
	// Intervals are compared in their widening-free threshold-lattice
	// form: the production analysis widens, and widening is not monotone
	// in the graph, so its solutions are not comparable across tiers
	// (see intervals.ClampedProblem).
	thr := intervals.Thresholds(fn.G)
	return &Oracle{nv: nv, thr: thr, u: u, kernel: kernel, lats: [...]oracle.Lattice{
		&constprop.Problem{NumVars: nv},
		&intervals.ClampedProblem{NumVars: nv, Conditional: true, T: thr},
		&liveness.Problem{NumVars: nv},
		&availexpr.Problem{U: u},
	}}
}

// Facts returns g's client solutions. cp is g's constant-propagation
// solution and guides the other clients; live and avail, when non-nil,
// are reused, and the missing ones are solved. Intervals are always
// solved, through mask (nil: unmasked).
func (o *Oracle) Facts(g *cfg.Graph, cp *constprop.Result, mask *feasible.Edges, live *liveness.Result, avail *availexpr.Result) TierFacts {
	if live == nil {
		live = solveLiveness(o.kernel, g, o.nv, cp.Sol)
	}
	if avail == nil {
		avail = solveAvailExpr(o.kernel, g, o.u, cp.Sol)
	}
	iv := intervals.AnalyzeClampedMasked(g, o.nv, o.thr, true, mask.Mask())
	return TierFacts{cp.Boxed(), iv.Boxed(), live.Boxed(), avail.Boxed()}
}

// Compare runs the oracle on every client: derived's vertex n projects
// to orig(n) in base's graph. The reports follow OracleClients.
func (o *Oracle) Compare(graph string, base, derived TierFacts, orig func(cfg.NodeID) cfg.NodeID) []*oracle.Report {
	reports := make([]*oracle.Report, len(OracleClients))
	for i, client := range OracleClients {
		reports[i] = oracle.Check(client, graph, o.lats[i], base[i], derived[i], orig)
	}
	return reports
}

// checkTier is one graph tier of a FuncResult as the oracle sees it.
type checkTier struct {
	name  string
	g     *cfg.Graph
	cp    *constprop.Result // the pipeline's solution (masked under Feasible)
	mask  *feasible.Edges
	orig  func(cfg.NodeID) cfg.NodeID // nil on the CFG itself
	live  *liveness.Result
	avail *availexpr.Result
	prof  *bl.Profile // the training profile on g (Feasible only)
}

// CheckFuncResult runs the precision differential oracle over every
// graph tier of a completed result — the CFG, and the HPG and reduced
// HPG when qualification ran — and every client the repo ships:
// constant propagation, intervals, liveness and available expressions.
// One Oracle computes each tier's facts (reusing the client solutions
// the result carries; intervals, which no stage retains, are always
// solved) and compares them. It runs up to three gates:
//
//   - The frequency gate certifies — or refutes, per vertex — the
//     paper's central guarantee: projected through the trace
//     correspondence, the HPG and reduced-HPG facts are pointwise at
//     least as precise as the CFG's.
//
//   - Under Options.Feasible, the pruning gate compares each tier's
//     masked facts against the unmasked facts of the same graph
//     (oracle.Identity): withholding facts along edges can only raise
//     the fixpoint, so a violation means the mask leaked into a
//     transfer. The reports' Improved counters are the precision the
//     feasibility axis bought on that tier.
//
//   - Under Options.Feasible, the trace gate (oracle.CheckTraces): no
//     edge the training run traversed may be marked infeasible —
//     checked on the CFG against the training profile, on the HPG
//     against its translation, and on the reduced graph against a fresh
//     translation of the training profile.
//
// The frequency reports come first, tier by tier, then the feasibility
// reports. Functions without qualified artifacts return no reports
// unless Feasible is set (there is nothing to compare).
func CheckFuncResult(fr *FuncResult) []*oracle.Report {
	if fr == nil || fr.OrigSol == nil {
		return nil
	}
	tiers := []checkTier{{
		name: "cfg", g: fr.Fn.G, cp: fr.OrigSol, mask: fr.FeasCFG,
		live: fr.LiveCFG, avail: fr.AvailCFG, prof: fr.Train,
	}}
	if fr.HPG != nil && fr.HPGSol != nil {
		h := fr.HPG
		tiers = append(tiers, checkTier{
			name: "hpg", g: h.G, cp: fr.HPGSol, mask: fr.FeasHPG,
			orig: func(n cfg.NodeID) cfg.NodeID { return h.OrigNode[n] },
			live: fr.LiveHPG, avail: fr.AvailHPG, prof: fr.HPGProf,
		})
	}
	if fr.Red != nil && fr.RedSol != nil {
		r := fr.Red
		t := checkTier{
			name: "rhpg", g: r.G, cp: fr.RedSol, mask: fr.FeasRed,
			orig: func(n cfg.NodeID) cfg.NodeID { return r.OrigNode[n] },
			live: fr.LiveRed, avail: fr.AvailRed,
		}
		if fr.Opt.Feasible && fr.Train != nil {
			if rp, err := fr.TranslateEval(fr.Train); err == nil {
				t.prof = rp
			}
		}
		tiers = append(tiers, t)
	}
	if len(tiers) == 1 && !fr.Opt.Feasible {
		return nil
	}

	o := NewOracle(fr.Fn, fr.AvailU, fr.Opt.Kernel)
	base := o.Facts(fr.Fn.G, fr.OrigSol, nil, fr.LiveCFG, fr.AvailCFG)
	var freq, feas []*oracle.Report
	for _, t := range tiers {
		facts := base // the tier's facts, intervals unmasked
		if t.orig != nil {
			facts = o.Facts(t.g, t.cp, nil, t.live, t.avail)
			freq = append(freq, o.Compare(t.name, base, facts, t.orig)...)
		}
		if !fr.Opt.Feasible {
			continue
		}
		graph := t.name + "/feasible"
		// t.cp is solved through the mask, so the masked side differs
		// from facts only in intervals. Under an empty mask the pipeline
		// solved the tier unmasked: facts serve as both sides.
		unmasked, masked := facts, facts
		if m := t.mask.Mask(); m != nil {
			unmasked = o.Facts(t.g, solveConstprop(fr.Opt.Kernel, t.g, o.nv, nil), nil, nil, nil)
			masked[1] = intervals.AnalyzeClampedMasked(t.g, o.nv, o.thr, true, m).Boxed() // OracleClients[1]
		}
		feas = append(feas, o.Compare(graph, unmasked, masked, oracle.Identity)...)
		if t.prof != nil && t.mask != nil {
			feas = append(feas,
				oracle.CheckTraces("traces", graph, profile.EdgeCounts(t.prof, t.g), t.mask.Infeasible))
		}
	}
	return append(freq, feas...)
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
