package bench

import (
	"context"

	"pathflow/internal/availexpr"
	"pathflow/internal/engine"
	"pathflow/internal/liveness"
	"pathflow/internal/profile"
)

// ClientsRow compares the two client analyses the backward-capable
// solver enables — live variables and available expressions — on the
// original CFG versus the reduced hot path graph. Like Figure 7, every
// count is dynamically weighted with the ref profile: a dead store or a
// redundant recomputation matters in proportion to how often it runs.
type ClientsRow struct {
	Name string
	// LiveBaseDyn / LiveQualDyn weight stores the liveness client proves
	// dead (no later use on any executable path) on the CFG and on the
	// final qualified graph. LiveBase/LiveQual are the static site
	// counts.
	LiveBase, LiveQual       int
	LiveBaseDyn, LiveQualDyn int64
	// AvailBase*/AvailQual* are the same pair for instructions that
	// recompute an already-available expression.
	AvailBase, AvailQual       int
	AvailBaseDyn, AvailQualDyn int64
}

// Clients runs the client-analysis comparison at the paper's
// recommended knobs. The engine computes the per-tier solutions (the
// liveness and availexpr pipeline stages); this harness only reweights
// them with the ref profile.
func Clients(ctx context.Context, instances []*Instance) ([]ClientsRow, error) {
	o := engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll}
	var rows []ClientsRow
	for _, in := range instances {
		res, err := in.Analyze(ctx, o)
		if err != nil {
			return nil, err
		}
		row := ClientsRow{Name: in.B.Name}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			fn := in.Prog.Funcs[name]
			refProf := in.Ref.Funcs[name]
			baseFreq := profile.NodeFrequencies(refProf, fn.G)

			s, d := liveness.DeadStoreCount(fn.G, fr.LiveCFG, baseFreq)
			row.LiveBase += s
			row.LiveBaseDyn += d

			s, d = availexpr.RedundantCount(fn.G, fr.AvailCFG, baseFreq)
			row.AvailBase += s
			row.AvailBaseDyn += d

			ep, err := fr.TranslateEval(refProf)
			if err != nil {
				return nil, err
			}
			g := fr.FinalGraph()
			qualFreq := profile.NodeFrequencies(ep, g)

			s, d = liveness.DeadStoreCount(g, fr.FinalLive(), qualFreq)
			row.LiveQual += s
			row.LiveQualDyn += d

			s, d = availexpr.RedundantCount(g, fr.FinalAvail(), qualFreq)
			row.AvailQual += s
			row.AvailQualDyn += d
		}
		rows = append(rows, row)
	}
	return rows, nil
}
