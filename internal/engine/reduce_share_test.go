package engine_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
)

// TestReduceSharedAcrossCR sweeps the named programs at CA .97 over the
// CR grid {0, 0.1, …, 1} on one cached engine, with feasibility on so
// the reduced tier carries a projected mask. The weigh stage must
// compute once per HPG and the reduce stage once per distinct (HPG, hot
// prefix); and at every CR each function's reduced bundle and reduced
// mask must equal those of a fresh uncached run at that CR, so sharing
// a bundle across cutoffs changes no result.
func TestReduceSharedAcrossCR(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 1, Cache: true})
	points, prefixes := 0, 0
	for _, b := range bench.All() {
		in, err := bench.Load(b, eng)
		if err != nil {
			t.Fatal(err)
		}
		hotPrefixes := map[string]map[int]bool{}
		weighed, reduced := 0, 0
		for i := 0; i <= 10; i++ {
			o := engine.Options{CA: 0.97, CR: float64(i) / 10, Feasible: true}
			got, err := eng.AnalyzeProgram(ctx, in.Prog, in.Train, o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engine.Serial().AnalyzeProgram(ctx, in.Prog, in.Train, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range in.Prog.Order {
				g, w := got.Funcs[name], want.Funcs[name]
				weighed += g.Metrics.Stages[engine.StageWeigh].Computed()
				reduced += g.Metrics.Stages[engine.StageReduce].Computed()
				if g.Qualified() != w.Qualified() {
					t.Fatalf("%s/%s CR=%v: qualified %v, uncached %v", b.Name, name, o.CR, g.Qualified(), w.Qualified())
				}
				if !w.Qualified() {
					continue
				}
				if hotPrefixes[name] == nil {
					hotPrefixes[name] = map[int]bool{}
				}
				hotPrefixes[name][len(w.Red.Hot)] = true
				label := fmt.Sprintf("%s/%s CR=%v", b.Name, name, o.CR)
				if !bytes.Equal(diskcache.EncodeReduced(diskcache.Meta{}, g.Red, g.RedSol),
					diskcache.EncodeReduced(diskcache.Meta{}, w.Red, w.RedSol)) {
					t.Errorf("%s: reduced bundle differs from the uncached run", label)
				}
				if g.FeasRed == nil || !reflect.DeepEqual(g.FeasRed.Infeasible, w.FeasRed.Infeasible) {
					t.Errorf("%s: reduced mask differs from the uncached run", label)
				}
				points++
			}
		}
		distinct := 0
		for _, ks := range hotPrefixes {
			distinct += len(ks)
		}
		if weighed != len(hotPrefixes) {
			t.Errorf("%s: weigh computed %d times for %d HPGs", b.Name, weighed, len(hotPrefixes))
		}
		if reduced != distinct {
			t.Errorf("%s: reduce computed %d times for %d distinct (HPG, hot prefix) pairs", b.Name, reduced, distinct)
		}
		prefixes += distinct
	}
	if prefixes == points {
		t.Fatalf("%d reduced points over %d distinct hot prefixes: no CR values shared a reduction", points, prefixes)
	}
	t.Logf("%d reduced points, %d distinct hot prefixes", points, prefixes)
}
