package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestSameSeedSameInputs: generated programs, their run arguments and
// the probe's counter batches are byte-identical for the same seed and
// differ for another.
func TestSameSeedSameInputs(t *testing.T) {
	spec := GenSpec{Tag: "t", Count: 6, Funcs: 2, MaxDepth: 3, Correlated: 40, MinNodes: 20, MaxNodes: 250}
	a, err := generate(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(7, spec)
	c, _ := generate(8, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different programs")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same programs")
	}

	ins := named()
	if err := load(ins, nil, -1); err != nil {
		t.Fatal(err)
	}
	batches := func(seed uint64) string {
		g := newDeltas(seed)
		var out strings.Builder
		for i := 0; i < 40; i++ {
			out.Write(mustJSON(g.next(ins[i%len(ins)])))
			out.WriteByte('\n')
		}
		return out.String()
	}
	if batches(3) != batches(3) {
		t.Error("same seed produced different counter batches")
	}
	if batches(3) == batches(4) {
		t.Error("different seeds produced the same counter batches")
	}
}

func TestGeneratedSizesStayInBand(t *testing.T) {
	spec := GenSpec{Tag: "band", Count: 5, Funcs: 2, MaxDepth: 3, MinNodes: 40, MaxNodes: 120, MinPaths: 2, MaxPaths: 10}
	ins, err := generate(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		if err := in.load(nil, -1); err != nil {
			t.Fatal(err)
		}
		if n := largestFunc(in.Prog); n < 40 || n > 120 {
			t.Errorf("%s: largest function %d nodes, outside 40..120", in.Name, n)
		}
		if n := in.Train.TotalPaths(); n < 2 || n > 10 {
			t.Errorf("%s: %d paths, outside 2..10", in.Name, n)
		}
	}
}
