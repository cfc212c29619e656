package diskcache_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/kernel"
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
// registers: a constant, then per block a constant into a temporary
// (v4–v7) added to the register (v0–v3) the previous block wrote. v0–v3
// cross blocks, so a solution's rows hold four columns of constant and
// ⊥ cells; the temporaries have none.
func chain(n int) (*cfg.Graph, int) {
	const numVars = 8
	g := cfg.New("chain")
	prev := g.Entry
	for i := 0; i < n-2; i++ {
		id := g.AddNode(fmt.Sprintf("b%d", i))
		x, t := ir.Var(i%4), ir.Var(4+i%4)
		in := []ir.Instr{
			{Op: ir.Const, Dst: t, A: ir.NoVar, B: ir.NoVar, K: ir.Value(i)},
			{Op: ir.Add, Dst: x, A: ir.Var((i + 3) % 4), B: t},
		}
		if i == 0 {
			in = in[:1]
			in[0].Dst = 0
		}
		g.Node(id).Instrs = in
		g.AddEdge(prev, id)
		prev = id
	}
	g.AddEdge(prev, g.Exit)
	return g, numVars
}

// relabel returns a copy of a framed bundle with its version byte set to
// v and its checksum recomputed: the frame a binary writing format v
// would have given the same payload.
func relabel(data []byte, v byte) []byte {
	out := slices.Clone(data)
	out[4] = v
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestSolutionWidthMismatchIsMiss requires a solution bundle whose
// width is not its graph's column count to decode as ErrCorrupt, which
// the engine treats as a cache miss, and never to panic: format v9's
// bundle, one cell per register, under its own version byte and
// relabelled as v10, and v10 bundles a column too narrow or too wide.
func TestSolutionWidthMismatchIsMiss(t *testing.T) {
	g, nv := chain(12)
	sol := constprop.AnalyzePacked(g, nv, true)
	if w := g.Columns().Width(); w != 4 || sol.Rows.Width != w {
		t.Fatalf("chain has %d columns and rows %d wide, want 4", w, sol.Rows.Width)
	}
	rows := func(width int, cell func(n, c int) constprop.Value) *constprop.Result {
		r := &constprop.Result{G: g, Sol: sol.Sol, Rows: kernel.KV{Width: width}, Cols: sol.Cols, NumVars: nv}
		r.Rows.Grow(g.NumNodes())
		for n := range g.Nodes {
			k, v := r.Rows.Row(n)
			for c := range k {
				x := cell(n, c)
				k[c], v[c] = uint8(x.Kind), x.K
			}
		}
		return r
	}
	full := rows(nv, func(n, c int) constprop.Value { return sol.Value(cfg.NodeID(n), ir.Var(c)) })
	v10 := diskcache.EncodeAnalyze(diskcache.Meta{Cost: 1}, full)
	top := func(int, int) constprop.Value { return constprop.Value{} }
	for name, data := range map[string][]byte{
		"v9":            relabel(v10, 9),
		"v9 as v10":     v10,
		"narrow by one": diskcache.EncodeAnalyze(diskcache.Meta{Cost: 1}, rows(3, top)),
		"wide by one":   diskcache.EncodeAnalyze(diskcache.Meta{Cost: 1}, rows(5, top)),
	} {
		if _, _, err := diskcache.DecodeAnalyze(data, g, nv); !errors.Is(err, diskcache.ErrCorrupt) {
			t.Errorf("%s: decoded with err %v, want ErrCorrupt", name, err)
		}
	}
	if _, got, err := diskcache.DecodeAnalyze(diskcache.EncodeAnalyze(diskcache.Meta{Cost: 1}, sol), g, nv); err != nil {
		t.Fatalf("the solver's own bundle: %v", err)
	} else {
		sameSolution(t, "chain", g, nv, got, sol)
	}
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
