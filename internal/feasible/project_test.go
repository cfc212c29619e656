package feasible_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	. "pathflow/internal/feasible"
)

// projectCAs × projectCRs is the grid TestProjectedMaskContainsDetected
// analyzes every program at.
var (
	projectCAs = []float64{0.75, 0.97, 1}
	projectCRs = []float64{0, 0.5, 0.95, 1}
)

// TestProjectedMaskContainsDetected keeps Detect on the reduced graph as
// the reference for Project: on every qualified function of the named
// programs and of the correlated generated ones, at every grid point,
// the HPG mask projected onto the rHPG must mark every edge Detect
// marks on the rHPG itself. The engine's FeasRed must be that
// projection.
func TestProjectedMaskContainsDetected(t *testing.T) {
	type input struct {
		group, label string
		prog         *cfg.Program
		train        *bl.ProgramProfile
	}
	var inputs []input
	for _, b := range bench.All() {
		in, err := bench.Load(b, engine.Serial())
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"named", b.Name, in.Prog, in.Train})
	}
	for seed := uint64(1); seed <= 12; seed++ {
		prog, train, err := correlatedProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"progen", fmt.Sprintf("progen %d", seed), prog, train})
	}

	// Per group: reduced graphs, their edges, and the edges Project and
	// Detect mark.
	type tally struct{ graphs, edges, projected, detected int }
	tallies := map[string]*tally{"named": {}, "progen": {}}
	for _, in := range inputs {
		// One caching engine per program: a CR sweep replays the
		// feasibility, trace and analyze stages.
		eng := engine.New(engine.Config{Workers: 1, Cache: true})
		for _, ca := range projectCAs {
			for _, cr := range projectCRs {
				res, err := eng.AnalyzeProgram(context.Background(), in.prog, in.train,
					engine.Options{CA: ca, CR: cr, Feasible: true})
				if err != nil {
					t.Fatalf("%s CA=%v CR=%v: %v", in.label, ca, cr, err)
				}
				for _, name := range in.prog.Order {
					fr := res.Funcs[name]
					if !fr.Qualified() {
						continue
					}
					label := fmt.Sprintf("%s CA=%v CR=%v %s", in.label, ca, cr, name)
					proj := Project(fr.Red, fr.FeasHPG)
					if fr.FeasRed == nil || !slices.Equal(proj.Infeasible, fr.FeasRed.Infeasible) {
						t.Errorf("%s: FeasRed is not Project(Red, FeasHPG)", label)
					}
					det := Detect(fr.Red.G, fr.Fn.NumVars())
					for e, m := range det.Infeasible {
						if m && !proj.Infeasible[e] {
							t.Errorf("%s: rHPG edge %d marked by Detect but not by Project", label, e)
						}
					}
					tl := tallies[in.group]
					tl.graphs++
					tl.edges += len(det.Infeasible)
					tl.projected += proj.Count
					tl.detected += det.Count
				}
			}
		}
	}
	for _, group := range []string{"named", "progen"} {
		tl := tallies[group]
		if tl.detected == 0 {
			t.Errorf("%s: Detect marked no rHPG edge; containment proves nothing", group)
		}
		t.Logf("%s: %d reduced graphs, %d edges: Project marked %d, Detect %d",
			group, tl.graphs, tl.edges, tl.projected, tl.detected)
	}
}
