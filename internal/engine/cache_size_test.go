package engine

import (
	"context"
	"testing"

	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/liveness"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// weighSrc has a hot loop whose constants only the qualified analysis
// finds, so its HPG weighs to a non-zero total.
const weighSrc = `
func main() {
	n = arg(0);
	i = 0;
	t = 0;
	while (i < n) {
		q = input() % 100;
		if (q < 90) { s = 4; k = s * 3; } else { s = q; k = s + 1; }
		t = t + k + s;
		i = i + 1;
	}
	print(t);
}
`

// weighEntries returns the memory tier's weigh bundles with the bytes
// each was charged.
func weighEntries(c *Cache) map[*reduce.Weights]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[*reduce.Weights]int64{}
	for k, e := range c.entries {
		if k.kind == kindWeigh && e.elem != nil {
			out[e.val.(*reduce.Weights)] = e.size
		}
	}
	return out
}

// cachedValues returns the memory tier's values with the bytes each
// was charged.
func cachedValues(c *Cache) map[cacheKey]cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[cacheKey]cacheEntry{}
	for k, e := range c.entries {
		if e.elem != nil {
			out[k] = cacheEntry{val: e.val, size: e.size}
		}
	}
	return out
}

// analyzeWeighSrc runs weighSrc on its training input through eng.
func analyzeWeighSrc(t *testing.T, eng *Engine, opt Options) {
	t.Helper()
	prog, err := lang.Compile(weighSrc)
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{200},
		Input: &interp.SliceInput{Values: []ir.Value{1, 2, 3, 95, 4, 5, 6, 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AnalyzeProgram(context.Background(), prog, train, opt); err != nil {
		t.Fatal(err)
	}
}

// TestWeighChargesPreparedBlocks: a computed weighing carries the HPG's
// prepared blocks, and the memory tier charges them on top of what the
// same weights cost bare. A weighing decoded from disk carries none
// when it is charged.
func TestWeighChargesPreparedBlocks(t *testing.T) {
	dir := t.TempDir()
	run := func() *Engine {
		eng, err := Open(Config{Workers: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		analyzeWeighSrc(t, eng, DefaultOptions())
		return eng
	}

	computed := weighEntries(run().cache)
	if len(computed) == 0 {
		t.Fatal("no weigh bundle in the memory tier")
	}
	for w, size := range computed {
		bare := approxSize(reduce.NewWeights(w.W))
		if w.PreparedBytes() <= 0 {
			t.Errorf("computed weighing carries no prepared blocks")
		}
		if size != bare+w.PreparedBytes() {
			t.Errorf("computed weighing charged %d bytes, want %d bare + %d of blocks", size, bare, w.PreparedBytes())
		}
	}

	decoded := weighEntries(run().cache)
	if len(decoded) == 0 {
		t.Fatal("no weigh bundle decoded from disk")
	}
	for w, size := range decoded {
		if w.PreparedBytes() != 0 {
			t.Errorf("decoded weighing claims %d bytes of prepared blocks", w.PreparedBytes())
		}
		if bare := approxSize(reduce.NewWeights(w.W)); size != bare {
			t.Errorf("decoded weighing charged %d bytes, want %d", size, bare)
		}
	}
}

// TestClientResultsChargeRows pins what the memory tier charges a
// liveness or available-expressions result: its bookkeeping, the
// reachability view and one row per node, plus for available
// expressions a nominal share of the universe. No result carries boxed
// facts.
func TestClientResultsChargeRows(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: true})
	opt := DefaultOptions()
	opt.Clients = ClientsAll
	analyzeWeighSrc(t, eng, opt)
	charge := func(sol *dataflow.Solution, words, nodes int) int64 {
		if sol.In != nil {
			t.Errorf("cached client result carries %d boxed facts", len(sol.In))
		}
		return 128 + int64(len(sol.Reached)+len(sol.EdgeExecutable)) + int64(words*nodes)*8
	}
	var live, avail int
	for k, e := range cachedValues(eng.cache) {
		var want int64
		switch r := e.val.(type) {
		case *liveness.Result:
			live++
			want = charge(r.Sol, r.Rows.Words, r.G.NumNodes())
		case *availexpr.Result:
			avail++
			want = charge(r.Sol, r.Rows.Words, r.G.NumNodes()) + int64(r.U.Size())*8
		default:
			continue
		}
		if e.size != want {
			t.Errorf("%s: %T charged %d bytes, want %d", k.kind, e.val, e.size, want)
		}
	}
	if live == 0 || avail == 0 {
		t.Fatalf("memory tier holds %d liveness and %d availexpr results, want some of each", live, avail)
	}
}

// TestTiersChargeSharedBlocks: a hot path graph and its reduction alias
// the original function's blocks, so the memory tier charges each for
// its node and edge slabs, in/out-list arena and names, and nothing per
// instruction.
func TestTiersChargeSharedBlocks(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: true})
	analyzeWeighSrc(t, eng, DefaultOptions())
	charge := func(g *cfg.Graph) int64 {
		if g.NumInstrs() == 0 {
			t.Fatalf("%s has no instructions to leave uncharged", g.Name)
		}
		n := int64(96+len(g.Name)) + int64(g.NumEdges())*32
		for _, nd := range g.Nodes {
			n += 120 + int64(len(nd.Name)) + int64(len(nd.Out)+len(nd.In))*4
		}
		return n
	}
	var hpgs, reds int
	for _, e := range cachedValues(eng.cache) {
		var g *cfg.Graph
		switch v := e.val.(type) {
		case *trace.HPG:
			hpgs++
			g = v.G
		case ReduceOut:
			reds++
			g = v.Red.G
		default:
			continue
		}
		if got, want := sizeGraph(g), charge(g); got != want {
			t.Errorf("%s charged %d bytes, want %d", g.Name, got, want)
		}
	}
	if hpgs == 0 || reds == 0 {
		t.Fatalf("memory tier holds %d HPGs and %d reductions, want some of each", hpgs, reds)
	}
}

// TestVerifyKeepsSolutionsNarrow: the oracle boxes whole environments
// after the pipeline's solutions enter the memory tier, and must not
// grow them by whole-environment rows the tier's byte bound never
// charged.
func TestVerifyKeepsSolutionsNarrow(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: true})
	opt := DefaultOptions()
	opt.Verify = true
	analyzeWeighSrc(t, eng, opt)
	var sols, reduced int
	for k, e := range cachedValues(eng.cache) {
		var r *constprop.Result
		switch v := e.val.(type) {
		case *constprop.Result:
			r = v
		case ReduceOut:
			r = v.RedSol
			reduced++
		default:
			continue
		}
		sols++
		if r.FullBytes() > 0 {
			t.Errorf("%s: cached solution keeps %d bytes of whole-environment rows", k.kind, r.FullBytes())
		}
	}
	if sols == 0 || reduced == 0 {
		t.Fatalf("memory tier holds %d solutions, %d of them reduced; want both", sols, reduced)
	}
}
