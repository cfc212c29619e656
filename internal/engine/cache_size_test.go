package engine

import (
	"context"
	"testing"

	"pathflow/internal/bl"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/reduce"
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

// TestWeighChargesPreparedBlocks: a computed weighing carries the HPG's
// prepared blocks, and the memory tier charges them on top of what the
// same weights cost bare. A weighing decoded from disk carries none
// when it is charged.
func TestWeighChargesPreparedBlocks(t *testing.T) {
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
	dir := t.TempDir()
	run := func() *Engine {
		eng, err := Open(Config{Workers: 1, CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.AnalyzeProgram(context.Background(), prog, train, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
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
