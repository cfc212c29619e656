package diskcache_test

import (
	"context"
	"testing"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/feasible"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
)

// costFunc is one function of a named program with what the pipeline
// computed for it at the default options: the inputs every cost row
// recomputes from and decodes against.
type costFunc struct {
	fr   *engine.FuncResult
	hot  []bl.Path
	feas []bool // the CFG tier's infeasible-edge mask
	w    *reduce.Weights
	k    int
}

// costRow is one persisted bundle kind: how the engine computes its
// artifact, encodes it and decodes it against the live objects.
type costRow struct {
	kind      diskcache.Kind
	qualified bool // only functions whose qualification chain ran
	compute   func(c *costFunc)
	encode    func(c *costFunc) []byte
	decode    func(c *costFunc, b []byte) error
}

var costRows = []costRow{
	{diskcache.KindSelect, false,
		func(c *costFunc) { profile.SelectHot(c.fr.Train, c.fr.Fn.G, c.fr.Opt.CA) },
		func(c *costFunc) []byte { return diskcache.EncodeSelect(diskcache.Meta{}, c.hot) },
		func(c *costFunc, b []byte) error { _, _, err := diskcache.DecodeSelect(b, c.fr.Fn.G); return err }},
	{diskcache.KindBaseline, false,
		func(c *costFunc) { constprop.AnalyzeMasked(c.fr.Fn.G, c.fr.Fn.NumVars(), true, nil) },
		func(c *costFunc) []byte { return diskcache.EncodeBaseline(diskcache.Meta{}, c.fr.OrigSol) },
		func(c *costFunc, b []byte) error {
			_, _, err := diskcache.DecodeBaseline(b, c.fr.Fn.G, c.fr.Fn.NumVars())
			return err
		}},
	{diskcache.KindFeasible, false,
		func(c *costFunc) { feasible.Detect(c.fr.Fn.G, c.fr.Fn.NumVars()) },
		func(c *costFunc) []byte { return diskcache.EncodeFeasible(diskcache.Meta{}, c.feas) },
		func(c *costFunc, b []byte) error { _, _, err := diskcache.DecodeFeasible(b, c.fr.Fn.G); return err }},
	{diskcache.KindAutomaton, true,
		func(c *costFunc) { automaton.New(c.fr.Fn.G, c.fr.Train.R, c.hot) },
		func(c *costFunc) []byte { return diskcache.EncodeAutomatonBundle(diskcache.Meta{}, c.fr.Auto) },
		func(c *costFunc, b []byte) error {
			_, _, err := diskcache.DecodeAutomatonBundle(b, c.fr.Train.R)
			return err
		}},
	{diskcache.KindAnalyze, true,
		func(c *costFunc) { constprop.AnalyzeMasked(c.fr.HPG.G, c.fr.Fn.NumVars(), true, nil) },
		func(c *costFunc) []byte { return diskcache.EncodeAnalyze(diskcache.Meta{}, c.fr.HPGSol) },
		func(c *costFunc, b []byte) error {
			_, _, err := diskcache.DecodeAnalyze(b, c.fr.HPG.G, c.fr.Fn.NumVars())
			return err
		}},
	{diskcache.KindTranslate, true,
		func(c *costFunc) { profile.Translate(c.fr.Train, c.fr.Fn.G, c.fr.HPG) },
		func(c *costFunc) []byte { return diskcache.EncodeTranslate(diskcache.Meta{}, c.fr.HPGProf) },
		func(c *costFunc, b []byte) error { _, _, err := diskcache.DecodeTranslate(b, c.fr.HPG.G); return err }},
	{diskcache.KindWeigh, true,
		func(c *costFunc) { reduce.Weigh(c.fr.HPG, c.fr.HPGSol, c.fr.HPGProf) },
		func(c *costFunc) []byte { return diskcache.EncodeWeigh(diskcache.Meta{}, c.w) },
		func(c *costFunc, b []byte) error { _, _, err := diskcache.DecodeWeigh(b, c.fr.HPG.G); return err }},
	{diskcache.KindReduced, true,
		func(c *costFunc) {
			red, err := reduce.Partition(c.fr.HPG, c.fr.HPGSol, c.w, c.k)
			if err != nil {
				panic(err)
			}
			constprop.AnalyzeMasked(red.G, c.fr.Fn.NumVars(), true, nil)
		},
		func(c *costFunc) []byte { return diskcache.EncodeReduced(diskcache.Meta{}, c.fr.Red, c.fr.RedSol) },
		func(c *costFunc, b []byte) error {
			_, _, _, err := diskcache.DecodeReduced(b, c.fr.HPG, c.w, c.k)
			return err
		}},
}

// loadCostFuncs runs the 7 named programs through an uncached engine at
// the default options and gathers every profiled function.
func loadCostFuncs(b *testing.B) []*costFunc {
	b.Helper()
	eng := engine.New(engine.Config{Workers: 1})
	var out []*costFunc
	for _, bm := range bench.All() {
		in, err := bench.Load(bm, eng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.AnalyzeProgram(context.Background(), in.Prog, in.Train, engine.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range in.Prog.Order {
			fr := res.Funcs[name]
			if fr.Train == nil {
				continue
			}
			c := &costFunc{
				fr:   fr,
				hot:  profile.SelectHot(fr.Train, fr.Fn.G, fr.Opt.CA),
				feas: feasible.Detect(fr.Fn.G, fr.Fn.NumVars()).Infeasible,
			}
			if fr.Qualified() {
				c.w = reduce.Weigh(fr.HPG, fr.HPGSol, fr.HPGProf)
				c.k = len(fr.Red.Hot)
			}
			out = append(out, c)
		}
	}
	return out
}

// BenchmarkBundleCost weighs each persisted bundle kind by the disk
// tier's rule: a stage persists only if reading its bundle back costs
// less than recomputing it. For every kind, one iteration recomputes
// the artifact of each function of the 7 named programs (default
// options; the feasible kind on the CFG tier), then reads each bundle
// back from a Store (file read, unframe with its checksum, and the
// decode with every bound check). It reports both totals per iteration
// and read/compute, their ratio. DESIGN.md §4a′ keeps the table.
//
//	go test -run '^$' -bench BundleCost -benchtime 5x ./internal/engine/diskcache/
func BenchmarkBundleCost(b *testing.B) {
	fns := loadCostFuncs(b)
	for _, row := range costRows {
		b.Run(row.kind.String(), func(b *testing.B) {
			var items []*costFunc
			for _, c := range fns {
				if !row.qualified || c.fr.Qualified() {
					items = append(items, c)
				}
			}
			store, err := diskcache.Open(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			key := func(i int) diskcache.Key { return diskcache.Key{Kind: row.kind, Slice: uint64(i)} }
			for i, c := range items {
				store.Put(key(i), row.encode(c))
			}
			var compute, read time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				t0 := time.Now()
				for _, c := range items {
					row.compute(c)
				}
				t1 := time.Now()
				for i, c := range items {
					data, ok := store.Get(key(i))
					if !ok {
						b.Fatalf("bundle %d is missing", i)
					}
					if err := row.decode(c, data); err != nil {
						b.Fatalf("bundle %d: %v", i, err)
					}
				}
				compute += t1.Sub(t0)
				read += time.Since(t1)
			}
			b.ReportMetric(float64(compute)/1e6/float64(b.N), "compute-ms/op")
			b.ReportMetric(float64(read)/1e6/float64(b.N), "read-ms/op")
			b.ReportMetric(float64(read)/float64(compute), "read/compute")
		})
	}
}
