package bench

import (
	"context"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/classify"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/intervals"
	"pathflow/internal/profile"
	"pathflow/internal/signs"
)

// Ablation experiments beyond the paper's published tables: each isolates
// one design choice DESIGN.md calls out.

// CRPoint measures the reduction cutoff tradeoff: how much of the
// qualified precision survives reduction at a given CR, and at what size.
type CRPoint struct {
	Name string
	CR   float64
	// RedNodes is the reduced graph size; NonlocalConstDyn the dynamic
	// non-local constants surviving on it (ref-weighted).
	RedNodes         int
	NonlocalConstDyn int64
	// Preserved is NonlocalConstDyn relative to CR = 1 (no benefit
	// cutoff, every weighted vertex kept).
	Preserved float64
}

// CRSweep sweeps the reduction cutoff at fixed CA = 0.97. With the
// artifact cache enabled this is the engine's best case: every CR point
// reuses the HPG, its solution and the translated profile, recomputing
// only reduction.
func CRSweep(ctx context.Context, instances []*Instance, crs []float64) ([]CRPoint, error) {
	var pts []CRPoint
	for _, in := range instances {
		full, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 1.0})
		if err != nil {
			return nil, err
		}
		fm, err := in.Evaluate(full)
		if err != nil {
			return nil, err
		}
		for _, cr := range crs {
			res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: cr})
			if err != nil {
				return nil, err
			}
			m, err := in.Evaluate(res)
			if err != nil {
				return nil, err
			}
			pt := CRPoint{Name: in.B.Name, CR: cr, RedNodes: m.RedNodes, NonlocalConstDyn: m.NonlocalConstDyn}
			if fm.NonlocalConstDyn > 0 {
				pt.Preserved = float64(m.NonlocalConstDyn) / float64(fm.NonlocalConstDyn)
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// BranchRow measures decided branches: the §7 Mueller-Whalley connection.
type BranchRow struct {
	Name string
	// BaseDyn / QualDyn are dynamic executions of branches whose
	// condition is a known constant, on the original graph and on the
	// reduced hot path graph.
	BaseDyn, QualDyn int64
	// BaseStatic / QualStatic are the corresponding site counts.
	BaseStatic, QualStatic int
}

// Branches measures constant-condition branches at CA = 0.97.
func Branches(ctx context.Context, instances []*Instance) ([]BranchRow, error) {
	var rows []BranchRow
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			return nil, err
		}
		row := BranchRow{Name: in.B.Name}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			refProf := in.Ref.Funcs[name]
			bs, bd := classify.DecidedBranches(fn.G, fr.OrigSol, profile.NodeFrequencies(refProf, fn.G))
			row.BaseStatic += bs
			row.BaseDyn += bd
			ep, err := fr.TranslateEval(refProf)
			if err != nil {
				return nil, err
			}
			qs, qd := classify.DecidedBranches(fr.FinalGraph(), fr.FinalSol(),
				profile.NodeFrequencies(ep, fr.FinalGraph()))
			row.QualStatic += qs
			row.QualDyn += qd
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SignsRow compares baseline and qualified sign analysis: the second
// data-flow client, demonstrating §8's "applicable to other data-flow
// problems".
type SignsRow struct {
	Name string
	// BaseDyn / QualDyn are dynamic executions of instructions with a
	// definite sign.
	BaseDyn, QualDyn int64
	// Gain is the relative improvement.
	Gain float64
}

// Signs measures definite-sign instructions at CA = 0.97.
func Signs(ctx context.Context, instances []*Instance) ([]SignsRow, error) {
	var rows []SignsRow
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			return nil, err
		}
		row := SignsRow{Name: in.B.Name}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			refProf := in.Ref.Funcs[name]
			base := signs.Analyze(fn.G, fn.NumVars(), true)
			_, bd := signs.DefiniteCount(fn.G, base, profile.NodeFrequencies(refProf, fn.G))
			row.BaseDyn += bd
			g := fr.FinalGraph()
			qual := signs.Analyze(g, fn.NumVars(), true)
			ep, err := fr.TranslateEval(refProf)
			if err != nil {
				return nil, err
			}
			_, qd := signs.DefiniteCount(g, qual, profile.NodeFrequencies(ep, g))
			row.QualDyn += qd
		}
		if row.BaseDyn > 0 {
			row.Gain = float64(row.QualDyn-row.BaseDyn) / float64(row.BaseDyn)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RangesRow compares baseline and qualified value-range analysis — the
// third client, whose lattice needs widening.
type RangesRow struct {
	Name string
	// BaseDyn / QualDyn are dynamic executions of instructions with a
	// finitely bounded result range.
	BaseDyn, QualDyn int64
	// Gain is the relative improvement.
	Gain float64
}

// Ranges measures bounded-range instructions at CA = 0.97.
func Ranges(ctx context.Context, instances []*Instance) ([]RangesRow, error) {
	var rows []RangesRow
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			return nil, err
		}
		row := RangesRow{Name: in.B.Name}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			refProf := in.Ref.Funcs[name]
			base := intervals.AnalyzePacked(fn.G, fn.NumVars(), true)
			_, bd := intervals.BoundedCount(fn.G, base, profile.NodeFrequencies(refProf, fn.G))
			row.BaseDyn += bd
			g := fr.FinalGraph()
			qual := intervals.AnalyzePacked(g, fn.NumVars(), true)
			ep, err := fr.TranslateEval(refProf)
			if err != nil {
				return nil, err
			}
			_, qd := intervals.BoundedCount(g, qual, profile.NodeFrequencies(ep, g))
			row.QualDyn += qd
		}
		if row.BaseDyn > 0 {
			row.Gain = float64(row.QualDyn-row.BaseDyn) / float64(row.BaseDyn)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// EdgeSelRow compares hot-path selection from true path profiles against
// the classic estimation from edge profiles (heaviest-out-edge peeling) —
// quantifying the motivation pathflow inherits from Ball-Larus [BL96].
type EdgeSelRow struct {
	Name string
	// PathDyn / EdgeDyn are qualified non-local constant executions with
	// path-profile-selected and edge-estimated hot paths, both at CA =
	// 0.97 and CR = 0.95.
	PathDyn, EdgeDyn int64
	// PathHot / EdgeHot count the selected paths; EdgeReal counts how
	// many edge-estimated paths were actually executed in training.
	PathHot, EdgeHot, EdgeReal int
}

// EdgeSelection runs the selection-strategy comparison.
func EdgeSelection(ctx context.Context, instances []*Instance) ([]EdgeSelRow, error) {
	o := engine.Options{CA: 0.97, CR: 0.95}
	var rows []EdgeSelRow
	for _, in := range instances {
		pathRes, err := in.Analyze(ctx, o)
		if err != nil {
			return nil, err
		}
		row := EdgeSelRow{Name: in.B.Name}
		for _, name := range in.Prog.Order {
			fn := in.Prog.Funcs[name]
			train := in.Train.Funcs[name]
			refProf := in.Ref.Funcs[name]

			fr := pathRes.Funcs[name]
			row.PathHot += len(fr.Hot)
			pd, err := nonlocalConstDyn(fr, fn, refProf)
			if err != nil {
				return nil, err
			}
			row.PathDyn += pd

			var edgeHot []bl.Path
			if train != nil && train.NumPaths() > 0 {
				counts := profile.EdgeCounts(train, fn.G)
				edgeHot = profile.SelectHotFromEdges(counts, fn.G, train.R, o.CA)
			}
			row.EdgeHot += len(edgeHot)
			for _, p := range edgeHot {
				if _, ok := train.Entries[p.Key()]; ok {
					row.EdgeReal++
				}
			}
			efr, err := in.Eng.AnalyzeFuncHot(ctx, fn, train, edgeHot, o)
			if err != nil {
				return nil, err
			}
			ed, err := nonlocalConstDyn(efr, fn, refProf)
			if err != nil {
				return nil, err
			}
			row.EdgeDyn += ed
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func nonlocalConstDyn(fr *engine.FuncResult, fn *cfg.Func, refProf *bl.Profile) (int64, error) {
	ep, err := fr.TranslateEval(refProf)
	if err != nil {
		return 0, err
	}
	g := fr.FinalGraph()
	freq := profile.NodeFrequencies(ep, g)
	return classify.SiteConstDyn(g, fr.FinalSol(), freq, true), nil
}

// PropRow compares Wegman-Zadek conditional propagation against plain
// iterative propagation on the same reduced hot path graph — the value of
// executable-edge pruning, independent of qualification.
type PropRow struct {
	Name string
	// PlainDyn / CondDyn are dynamic constant-result instructions under
	// plain and conditional propagation on the rHPG.
	PlainDyn, CondDyn int64
}

// Propagation runs the comparison at CA = 0.97.
func Propagation(ctx context.Context, instances []*Instance) ([]PropRow, error) {
	var rows []PropRow
	for _, in := range instances {
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			return nil, err
		}
		row := PropRow{Name: in.B.Name}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			g := fr.FinalGraph()
			ep, err := fr.TranslateEval(in.Ref.Funcs[name])
			if err != nil {
				return nil, err
			}
			freq := profile.NodeFrequencies(ep, g)
			plain := constprop.AnalyzePacked(g, fn.NumVars(), false)
			row.PlainDyn += classify.SiteConstDyn(g, plain, freq, false)
			row.CondDyn += classify.SiteConstDyn(g, fr.FinalSol(), freq, false)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
