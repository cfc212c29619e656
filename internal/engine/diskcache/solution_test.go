package diskcache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/ir"
	"pathflow/internal/reduce"
)

// benchResults analyzes the seven named programs at CA 0.97, CR 0.95 on
// the default (packed) kernels.
func benchResults(t *testing.T) map[string]*engine.ProgramResult {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 1})
	out := map[string]*engine.ProgramResult{}
	for _, b := range bench.All() {
		in, err := bench.Load(b, eng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Analyze(context.Background(), engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		out[b.Name] = res
	}
	return out
}

// sameSolution requires got to carry want's solution exactly: every
// register's value at every node (⊤ at unreached nodes), reachability,
// executable edges, iterations and pops.
func sameSolution(t *testing.T, label string, g *cfg.Graph, numVars int, got, want *constprop.Result) {
	t.Helper()
	if got.G != g {
		t.Fatalf("%s: decoded solution is not attached to its graph", label)
	}
	for _, nd := range g.Nodes {
		for v := 0; v < numVars; v++ {
			gv, wv := got.Value(nd.ID, ir.Var(v)), want.Value(nd.ID, ir.Var(v))
			if gv != wv {
				t.Fatalf("%s: node %d v%d = %v, want %v", label, nd.ID, v, gv, wv)
			}
			if !want.Reached(nd.ID) && gv.Kind != constprop.Top {
				t.Fatalf("%s: unreached node %d v%d = %v, want ⊤", label, nd.ID, v, gv)
			}
		}
	}
	switch {
	case !reflect.DeepEqual(got.Sol.Reached, want.Sol.Reached):
		t.Fatalf("%s: Reached differs", label)
	case !reflect.DeepEqual(got.Sol.EdgeExecutable, want.Sol.EdgeExecutable):
		t.Fatalf("%s: EdgeExecutable differs", label)
	case got.Sol.Iterations != want.Sol.Iterations:
		t.Fatalf("%s: Iterations %d, want %d", label, got.Sol.Iterations, want.Sol.Iterations)
	case got.Sol.Pops != want.Sol.Pops || want.Sol.Pops == 0:
		t.Fatalf("%s: Pops %d, want %d (nonzero)", label, got.Sol.Pops, want.Sol.Pops)
	case got.Sol.In != nil:
		t.Fatalf("%s: decoded solution carries boxed facts", label)
	}
}

// TestSolutionBundleRoundTrip round-trips the constant-propagation
// solution of every function of the named programs through the disk
// codec on all three graph tiers, and requires the boxed reference
// solver's result to encode to the same bytes as the packed one.
func TestSolutionBundleRoundTrip(t *testing.T) {
	meta := diskcache.Meta{Cost: 7}
	tiers := 0
	for name, res := range benchResults(t) {
		for _, fname := range res.Prog.Order {
			fr := res.Funcs[fname]
			nv := fr.Fn.NumVars()
			label := name + "/" + fname

			// The baseline is not persisted, but its solution goes through
			// the same column codec as the HPG's: encode it as an analyze
			// bundle against the original graph.
			data := diskcache.EncodeAnalyze(meta, fr.OrigSol)
			_, got, err := diskcache.DecodeAnalyze(data, fr.Fn.G, nv)
			if err != nil {
				t.Fatalf("%s cfg: %v", label, err)
			}
			sameSolution(t, label+" cfg", fr.Fn.G, nv, got, fr.OrigSol)
			if boxed := diskcache.EncodeAnalyze(meta, constprop.AnalyzeBoxed(fr.Fn.G, nv, true)); !bytes.Equal(boxed, data) {
				t.Fatalf("%s cfg: boxed and packed solutions encode differently", label)
			}
			tiers++
			if !fr.Qualified() {
				continue
			}

			data = diskcache.EncodeAnalyze(meta, fr.HPGSol)
			_, got, err = diskcache.DecodeAnalyze(data, fr.HPG.G, nv)
			if err != nil {
				t.Fatalf("%s hpg: %v", label, err)
			}
			sameSolution(t, label+" hpg", fr.HPG.G, nv, got, fr.HPGSol)
			if boxed := diskcache.EncodeAnalyze(meta, constprop.AnalyzeBoxed(fr.HPG.G, nv, true)); !bytes.Equal(boxed, data) {
				t.Fatalf("%s hpg: boxed and packed solutions encode differently", label)
			}

			w := reduce.Weigh(fr.HPG, fr.HPGSol, fr.HPGProf)
			data = diskcache.EncodeReduced(meta, fr.Red, fr.RedSol)
			_, red, got, err := diskcache.DecodeReduced(data, fr.HPG, w, reduce.HotPrefix(w, fr.Opt.CR))
			if err != nil {
				t.Fatalf("%s rhpg: %v", label, err)
			}
			sameSolution(t, label+" rhpg", red.G, nv, got, fr.RedSol)
			if boxed := diskcache.EncodeReduced(meta, fr.Red, constprop.AnalyzeBoxed(fr.Red.G, nv, true)); !bytes.Equal(boxed, data) {
				t.Fatalf("%s rhpg: boxed and packed solutions encode differently", label)
			}
			tiers += 2
		}
	}
	t.Logf("%d solution tiers round-tripped", tiers)
}

// TestReducedBundleRebuildsQuotient requires the partition-only reduced
// bundle to decode to the Reduced that reduction computed, field for
// field, and a class vector that is out of range, leaves a class empty
// or is not a congruence to decode as ErrCorrupt.
func TestReducedBundleRebuildsQuotient(t *testing.T) {
	meta := diskcache.Meta{Cost: 3}
	corrupt := map[string]int{}
	for name, res := range benchResults(t) {
		for _, fname := range res.Prog.Order {
			fr := res.Funcs[fname]
			if !fr.Qualified() {
				continue
			}
			h, nv := fr.HPG, fr.Fn.NumVars()
			w := reduce.Weigh(h, fr.HPGSol, fr.HPGProf)
			for _, cr := range []float64{0, 0.5, 0.95, 1} {
				label := fmt.Sprintf("%s/%s CR=%v", name, fname, cr)
				want, err := reduce.Reduce(h, fr.HPGSol, fr.HPGProf, reduce.Options{CR: cr})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				k := reduce.HotPrefix(w, cr)
				sol := constprop.AnalyzePacked(want.G, nv, true)
				data := diskcache.EncodeReduced(meta, want, sol)
				_, got, _, err := diskcache.DecodeReduced(data, h, w, k)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: decoded Reduced differs from the computed one", label)
				}

				reject := func(kind string, class []int) {
					t.Helper()
					bad := *want
					bad.Class = class
					if _, _, _, err := diskcache.DecodeReduced(diskcache.EncodeReduced(meta, &bad, sol), h, w, k); !errors.Is(err, diskcache.ErrCorrupt) {
						t.Fatalf("%s: %s class vector decoded with err %v, want ErrCorrupt", label, kind, err)
					}
					corrupt[kind]++
				}
				numClasses := want.G.NumNodes()
				outOfRange := append([]int(nil), want.Class...)
				outOfRange[len(outOfRange)-1] = numClasses + 1
				reject("out-of-range", outOfRange)
				if numClasses > 1 {
					// Shift every class but the first up by one: class 1
					// is left without members.
					empty := make([]int, len(want.Class))
					for n, c := range want.Class {
						if c > 0 {
							empty[n] = c + 1
						}
					}
					reject("empty", empty)
				}
				if class := nonCongruent(want); class != nil {
					reject("non-congruent", class)
				}
			}
		}
	}
	for _, kind := range []string{"out-of-range", "empty", "non-congruent"} {
		if corrupt[kind] == 0 {
			t.Errorf("no %s class vector was exercised", kind)
		}
	}
	t.Logf("corrupt class vectors rejected: %v", corrupt)
}

// TestWeighBundleRoundTrip requires a weigh bundle to decode to the
// weights, order and total reduce.Weigh computed, and a weight column
// whose length disagrees with the HPG, or a negative weight, to decode
// as ErrCorrupt.
func TestWeighBundleRoundTrip(t *testing.T) {
	meta := diskcache.Meta{Cost: 5}
	bundles := 0
	for name, res := range benchResults(t) {
		for _, fname := range res.Prog.Order {
			fr := res.Funcs[fname]
			if !fr.Qualified() {
				continue
			}
			label := name + "/" + fname
			want := reduce.Weigh(fr.HPG, fr.HPGSol, fr.HPGProf)
			m, got, err := diskcache.DecodeWeigh(diskcache.EncodeWeigh(meta, want), fr.HPG.G)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Only the weighing is compared: Weigh also attaches the HPG's
			// prepared blocks, which a decoded weighing builds lazily.
			if m != meta || !slices.Equal(got.W, want.W) || !slices.Equal(got.Order, want.Order) || got.Total != want.Total {
				t.Fatalf("%s: decoded weighing differs from the computed one", label)
			}
			for kind, w := range map[string][]int64{
				"short":    want.W[1:],
				"long":     append(slices.Clone(want.W), 1),
				"negative": append([]int64{-1}, want.W[1:]...),
			} {
				if _, _, err := diskcache.DecodeWeigh(diskcache.EncodeWeigh(meta, &reduce.Weights{W: w}), fr.HPG.G); !errors.Is(err, diskcache.ErrCorrupt) {
					t.Fatalf("%s: %s weight column decoded with err %v, want ErrCorrupt", label, kind, err)
				}
			}
			bundles++
		}
	}
	if bundles == 0 {
		t.Fatal("no qualified function to weigh")
	}
}

// nonCongruent merges two classes of red whose members duplicate the
// same original vertex and returns the merged vector (renumbered in
// order of first member) if reduce.Assemble rejects it as not a
// congruence, or nil when no such pair exists.
func nonCongruent(red *reduce.Reduced) []int {
	for a := range red.Members {
		for b := a + 1; b < len(red.Members); b++ {
			if orig := red.H.OrigNode; orig[red.Members[a][0]] != orig[red.Members[b][0]] {
				continue
			}
			renum := map[int]int{}
			class := make([]int, len(red.Class))
			for n, c := range red.Class {
				if c == b {
					c = a
				}
				if _, ok := renum[c]; !ok {
					renum[c] = len(renum)
				}
				class[n] = renum[c]
			}
			_, err := reduce.Assemble(red.H, class, red.Hot, red.Weights)
			if err != nil && strings.Contains(err.Error(), "congruence") {
				return class
			}
		}
	}
	return nil
}

// chain builds a straight-line function of n nodes over eight
// registers: an input, then one constant per block.
func chain(n int) (*cfg.Graph, int) {
	const numVars = 8
	g := cfg.New("chain")
	prev := g.Entry
	for i := 0; i < n-2; i++ {
		id := g.AddNode(fmt.Sprintf("b%d", i))
		in := ir.Instr{Op: ir.Const, Dst: ir.Var(i % numVars), A: ir.NoVar, B: ir.NoVar, K: ir.Value(i)}
		if i == 0 {
			in = ir.Instr{Op: ir.Input, Dst: 0, A: ir.NoVar, B: ir.NoVar}
		}
		g.Node(id).Instrs = []ir.Instr{in}
		g.AddEdge(prev, id)
		prev = id
	}
	g.AddEdge(prev, g.Exit)
	return g, numVars
}

// decoded keeps BenchmarkDecodeSolution's result live.
var decoded *constprop.Result

// BenchmarkDecodeSolution decodes one analyze bundle at two graph sizes.
// ci.sh requires equal allocs/op across the two: decoding allocates per
// bundle, never per row.
func BenchmarkDecodeSolution(b *testing.B) {
	for _, n := range []int{10, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			g, nv := chain(n)
			data := diskcache.EncodeAnalyze(diskcache.Meta{Cost: 1}, constprop.AnalyzePacked(g, nv, true))
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if _, decoded, err = diskcache.DecodeAnalyze(data, g, nv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
