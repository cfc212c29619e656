package engine_test

import (
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/opt"
)

// TestTiersLeaveOriginalBlocksIntact: every hot path graph and
// reduction aliases its original function's blocks (cfg.Node.Instrs),
// so nothing downstream may rewrite a tier's blocks in place. A whole
// feasible run with every client, the precision oracle and every
// optimizer pass over the named programs must leave each function's
// body fingerprint as it was.
func TestTiersLeaveOriginalBlocksIntact(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Cache: true})
	o := engine.Options{CA: 0.97, CR: 0.95, Clients: engine.ClientsAll, Feasible: true}
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := bl.ProfileProgram(prog, b.TrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		before := map[string]uint64{}
		for _, name := range prog.Order {
			before[name] = engine.FingerprintBody(prog.Funcs[name])
		}
		res, err := eng.AnalyzeProgram(ctx, prog, train, o)
		if err != nil {
			t.Fatal(err)
		}
		qualified := 0
		for _, name := range prog.Order {
			fr := res.Funcs[name]
			if fr.Qualified() {
				qualified++
				// The pipeline checks a tier's structure only.
				for _, g := range []*cfg.Graph{fr.HPG.G, fr.Red.G} {
					if err := g.Validate(fr.Fn.NumVars()); err != nil {
						t.Fatalf("%s/%s: %v", b.Name, name, err)
					}
				}
			}
			engine.CheckFuncResult(fr)
		}
		if qualified == 0 {
			t.Fatalf("%s: no function qualified, so no tier shares a block", b.Name)
		}
		if _, c := res.OptimizedProgram(opt.PassesAll); c.Dead == 0 {
			t.Fatalf("%s: the optimizer deleted nothing, so the test exercises no in-place deletion", b.Name)
		}
		for _, name := range prog.Order {
			if got := engine.FingerprintBody(prog.Funcs[name]); got != before[name] {
				t.Errorf("%s/%s: body fingerprint %#x after the run, %#x before", b.Name, name, got, before[name])
			}
		}
	}
}
