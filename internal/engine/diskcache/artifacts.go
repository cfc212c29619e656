package diskcache

import (
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// Meta is the envelope every bundle carries: the compute cost of the
// stage run that produced it, so a disk hit can still report the stage
// duration the artifact originally cost (keeping Figure 12-style cost
// ratios meaningful under caching), the same convention the in-memory
// tier uses. Nothing in it participates in the key, so bundles written
// by incremental and cold runs of identical inputs interchange freely.
type Meta struct {
	Cost time.Duration
}

func encodeMeta(e *enc, m Meta) { e.i64(int64(m.Cost)) }

func decodeMeta(d *dec) Meta { return Meta{Cost: time.Duration(d.i64())} }

// --- Index columns ------------------------------------------------------

// encodeIDs writes a length-prefixed column of non-negative indices.
func encodeIDs(e *enc, v []int) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(uint64(x))
	}
}

// decodeIDs reads a column encodeIDs wrote, every index below bound; an
// empty column decodes as nil.
func decodeIDs(d *dec, bound int) []int {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		x := d.u64()
		if x >= uint64(bound) {
			d.fail()
			return nil
		}
		v[i] = int(x)
	}
	return v
}

// --- Data-flow solutions --------------------------------------------------

// encodeSolution writes a constant-propagation solution as columns,
// without its graph, which the decoder is handed: the HPG trace.Build
// rebuilds for the analyze bundle, or the quotient the reduced bundle's
// decoder reassembles from its partition:
//
//	nodes, edges, width  uvarints: the shape the decoder checks
//	reached              one bit per node
//	kinds                width kind bytes per reached node, in node order
//	values               one varint per Const cell, in kind order
//	executable           one bit per edge
//	iterations, pops     uvarints
//
// Unreached rows are all ⊤ and non-Const cells hold 0, so neither needs
// storing.
func encodeSolution(e *enc, r *constprop.Result) {
	sol, rows := r.Sol, &r.Rows
	w := rows.Width
	e.u64(uint64(len(sol.Reached)))
	e.u64(uint64(len(sol.EdgeExecutable)))
	e.u64(uint64(w))
	e.bits(sol.Reached)
	for n, reached := range sol.Reached {
		if reached {
			e.b = append(e.b, rows.Kind[n*w:(n+1)*w]...)
		}
	}
	for i, k := range rows.Kind {
		if k == uint8(constprop.Const) {
			e.i64(rows.Val[i])
		}
	}
	e.bits(sol.EdgeExecutable)
	e.u64(uint64(sol.Iterations))
	e.u64(uint64(sol.Pops))
}

// decodeSolution reads a solution and attaches it to g, validating that
// the recorded shape matches the graph's. Decoding allocates per
// bundle, never per row: the kind column is validated in one pass and
// copied row by row into a fresh arena.
func decodeSolution(d *dec, g *cfg.Graph, numVars int) *constprop.Result {
	n, ne := g.NumNodes(), g.NumEdges()
	if d.u64() != uint64(n) || d.u64() != uint64(ne) || d.u64() != uint64(numVars) {
		d.fail()
		return nil
	}
	reached := d.bits(n)
	live := 0
	for _, r := range reached {
		if r {
			live++
		}
	}
	kinds := d.raw(live * numVars)
	if d.err != nil {
		return nil
	}
	for _, k := range kinds {
		if k > uint8(constprop.Bottom) {
			d.fail()
			return nil
		}
	}
	r := &constprop.Result{G: g, Rows: kernel.KV{Width: numVars}}
	r.Rows.Grow(n)
	for node, ok := range reached {
		if ok {
			copy(r.Rows.Kind[node*numVars:(node+1)*numVars], kinds)
			kinds = kinds[numVars:]
		}
	}
	for i, k := range r.Rows.Kind {
		if k == uint8(constprop.Const) {
			r.Rows.Val[i] = d.i64()
		}
	}
	r.Sol = &dataflow.Solution{Reached: reached, EdgeExecutable: d.bits(ne), Iterations: int(d.u64()), Pops: int(d.u64())}
	if d.err != nil {
		return nil
	}
	return r
}

// --- Automata -------------------------------------------------------------

func encodeAutomaton(e *enc, a *automaton.Automaton) {
	snap := a.Snapshot()
	e.u64(uint64(len(snap.Trans)))
	for q, ts := range snap.Trans {
		e.bool(snap.Accept[q])
		e.i64(int64(snap.Depth[q]))
		e.u64(uint64(len(ts)))
		for _, t := range ts {
			e.i64(int64(t.Edge))
			e.i64(int64(t.To))
		}
	}
	e.int(snap.NumKeywords)
}

func decodeAutomaton(d *dec, R map[cfg.EdgeID]bool) *automaton.Automaton {
	n := d.sliceLen()
	snap := &automaton.Snapshot{
		Trans:  make([][]automaton.TransEdge, n),
		Accept: make([]bool, n),
		Depth:  make([]int32, n),
	}
	for q := 0; q < n; q++ {
		snap.Accept[q] = d.bool()
		snap.Depth[q] = int32(d.i64())
		m := d.sliceLen()
		ts := make([]automaton.TransEdge, m)
		for i := 0; i < m; i++ {
			ts[i] = automaton.TransEdge{
				Edge: cfg.EdgeID(d.i64()),
				To:   automaton.State(d.i64()),
			}
		}
		snap.Trans[q] = ts
	}
	snap.NumKeywords = d.int()
	if d.err != nil {
		return nil
	}
	a, err := automaton.FromSnapshot(R, snap)
	if err != nil {
		d.fail()
		return nil
	}
	return a
}

// --- Bundles --------------------------------------------------------------

// encodeBundle frames a kind bundle: meta, then body's payload.
func encodeBundle(kind Kind, meta Meta, body func(*enc)) []byte {
	var e enc
	encodeMeta(&e, meta)
	body(&e)
	return frame(kind, e.b)
}

// decodeBundle unframes a kind bundle, reads its meta and decodes the
// rest with body, which must consume the payload exactly. body reports
// a semantic defect through d.fail.
func decodeBundle[T any](kind Kind, data []byte, body func(d *dec) T) (Meta, T, error) {
	var zero T
	payload, err := unframe(kind, data)
	if err != nil {
		return Meta{}, zero, err
	}
	d := &dec{b: payload}
	meta := decodeMeta(d)
	v := body(d)
	if err := d.done(); err != nil {
		return Meta{}, zero, err
	}
	return meta, v, nil
}

// EncodeAnalyze frames the HPG analysis bundle: the Wegman-Zadek
// solution on the traced graph, without the graph itself (the HPG is
// not persisted; the decoder re-attaches the solution to a rebuilt one).
func EncodeAnalyze(meta Meta, sol *constprop.Result) []byte {
	return encodeBundle(KindAnalyze, meta, func(e *enc) { encodeSolution(e, sol) })
}

// DecodeAnalyze decodes an analyze bundle against the live HPG graph it
// was computed on. trace.Build is deterministic, so a rebuilt HPG has
// the node and edge IDs the solution was solved on; the Merkle chain
// guarantees the shapes agree, and the decoder re-validates them.
func DecodeAnalyze(data []byte, g *cfg.Graph, numVars int) (Meta, *constprop.Result, error) {
	return decodeBundle(KindAnalyze, data, func(d *dec) *constprop.Result { return decodeSolution(d, g, numVars) })
}

// EncodeAutomatonBundle frames a qualification-automaton bundle.
func EncodeAutomatonBundle(meta Meta, a *automaton.Automaton) []byte {
	return encodeBundle(KindAutomaton, meta, func(e *enc) { encodeAutomaton(e, a) })
}

// DecodeAutomatonBundle decodes an automaton bundle, rebuilding the
// automaton against recording set R (owned by the training profile the
// bundle was keyed by).
func DecodeAutomatonBundle(data []byte, R map[cfg.EdgeID]bool) (Meta, *automaton.Automaton, error) {
	return decodeBundle(KindAutomaton, data, func(d *dec) *automaton.Automaton { return decodeAutomaton(d, R) })
}

// EncodeWeigh frames a weighing bundle: one weight per HPG node. The
// weight order is not stored; the decoder rebuilds it.
func EncodeWeigh(meta Meta, w *reduce.Weights) []byte {
	return encodeBundle(KindWeigh, meta, func(e *enc) {
		e.u64(uint64(len(w.W)))
		for _, x := range w.W {
			e.i64(x)
		}
	})
}

// DecodeWeigh decodes a weighing bundle against the HPG graph g it
// weighs; a weight column whose length disagrees with g's node count,
// or a negative weight, is corrupt.
func DecodeWeigh(data []byte, g *cfg.Graph) (Meta, *reduce.Weights, error) {
	return decodeBundle(KindWeigh, data, func(d *dec) *reduce.Weights {
		if d.u64() != uint64(g.NumNodes()) {
			d.fail()
			return nil
		}
		w := make([]int64, g.NumNodes())
		for i := range w {
			if w[i] = d.i64(); w[i] < 0 {
				d.fail()
				return nil
			}
		}
		if d.err != nil {
			return nil
		}
		return reduce.NewWeights(w)
	})
}

// EncodeReduced frames a reduction bundle: the class vector the
// reduction chose and the re-analyzed solution. Neither the quotient
// graph nor the hot vertices and weights are stored: the bundle is keyed
// by the weighing and the hot prefix, and the decoder rebuilds the
// quotient from those and the partition.
func EncodeReduced(meta Meta, red *reduce.Reduced, sol *constprop.Result) []byte {
	return encodeBundle(KindReduced, meta, func(e *enc) {
		encodeIDs(e, red.Class)
		encodeSolution(e, sol)
	})
}

// DecodeReduced decodes a reduction bundle against the HPG it quotients
// and the weighing w and hot prefix k it was partitioned with,
// rebuilding the quotient with reduce.Assemble, which rejects any class
// vector that is not a congruence of h in canonical numbering.
func DecodeReduced(data []byte, h *trace.HPG, w *reduce.Weights, k int) (Meta, *reduce.Reduced, *constprop.Result, error) {
	var red *reduce.Reduced
	meta, sol, err := decodeBundle(KindReduced, data, func(d *dec) *constprop.Result {
		class := decodeIDs(d, h.G.NumNodes())
		if d.err != nil {
			return nil
		}
		var err error
		if red, err = reduce.Assemble(h, class, w.Hot(k), w.W); err != nil {
			d.fail()
			return nil
		}
		return decodeSolution(d, red.G, h.Fn.NumVars())
	})
	if err != nil {
		return Meta{}, nil, nil, err
	}
	return meta, red, sol, nil
}

// --- Feasibility masks ----------------------------------------------------

// EncodeFeasible frames one graph tier's infeasible-edge mask (indexed
// by cfg.EdgeID). The graph itself is not stored: the decoder validates
// the mask's length against the live graph it re-attaches to.
func EncodeFeasible(meta Meta, mask []bool) []byte {
	return encodeBundle(KindFeasible, meta, func(e *enc) {
		e.u64(uint64(len(mask)))
		e.bits(mask)
	})
}

// DecodeFeasible decodes a feasibility bundle against the tier's graph;
// a mask whose length disagrees with the graph's edge count is corrupt.
func DecodeFeasible(data []byte, g *cfg.Graph) (Meta, []bool, error) {
	return decodeBundle(KindFeasible, data, func(d *dec) []bool {
		if d.u64() != uint64(g.NumEdges()) {
			d.fail()
			return nil
		}
		return d.bits(g.NumEdges())
	})
}
