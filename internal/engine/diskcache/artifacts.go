package diskcache

import (
	"slices"
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
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
func encodeIDs[T ~int | ~int32](e *enc, v []T) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(uint64(x))
	}
}

// decodeIDs reads a column encodeIDs wrote, every index below bound; an
// empty column decodes as nil.
func decodeIDs[T ~int | ~int32](d *dec, bound int) []T {
	n := d.sliceLen()
	if n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		x := d.u64()
		if x >= uint64(bound) {
			d.fail()
			return nil
		}
		v[i] = T(x)
	}
	return v
}

// --- Hot-path sets --------------------------------------------------------

func encodeHot(e *enc, hot []bl.Path) {
	e.u64(uint64(len(hot)))
	for _, p := range hot {
		encodeIDs(e, p.Edges)
	}
}

func decodeHot(d *dec, g *cfg.Graph) []bl.Path {
	hot := make([]bl.Path, d.sliceLen())
	for i := range hot {
		hot[i].Edges = decodeIDs[cfg.EdgeID](d, g.NumEdges())
	}
	return hot
}

// --- Data-flow solutions --------------------------------------------------

// encodeSolution writes a constant-propagation solution as columns,
// without its graph (the graph is either caller-owned — the baseline
// runs on the original function — or rebuilt by the bundle's decoder):
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

// --- Graphs ---------------------------------------------------------------

// encodeGraph writes a full cfg.Graph: nodes with instructions and
// terminators, then edges in ID order. Replaying the edge list through
// AddEdge reproduces identical Out/In lists and successor slots, because
// slot order within a node follows global edge-ID order for every graph
// the pipeline builds.
func encodeGraph(e *enc, g *cfg.Graph) {
	e.str(g.Name)
	e.int(int(g.Entry))
	e.int(int(g.Exit))
	e.u64(uint64(len(g.Nodes)))
	for _, nd := range g.Nodes {
		e.str(nd.Name)
		e.byte(byte(nd.Kind))
		e.i64(int64(nd.Cond))
		e.i64(int64(nd.Ret))
		e.u64(uint64(len(nd.Instrs)))
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			e.byte(byte(in.Op))
			e.i64(int64(in.Dst))
			e.i64(int64(in.A))
			e.i64(int64(in.B))
			e.i64(in.K)
			e.str(in.Callee)
			e.u64(uint64(len(in.Args)))
			for _, a := range in.Args {
				e.i64(int64(a))
			}
		}
	}
	e.u64(uint64(len(g.Edges)))
	for _, ed := range g.Edges {
		e.int(int(ed.From))
		e.int(int(ed.To))
	}
}

// decodeGraph reads a graph and validates its structural invariants
// against numVars (terminator arity, slot consistency, register ranges).
func decodeGraph(d *dec, numVars int) *cfg.Graph {
	g := &cfg.Graph{Name: d.str()}
	entry, exit := d.int(), d.int()
	nNodes := d.sliceLen()
	for i := 0; i < nNodes; i++ {
		id := g.AddNode(d.str())
		nd := g.Node(id)
		nd.Kind = cfg.TermKind(d.byte())
		nd.Cond = ir.Var(d.i64())
		nd.Ret = ir.Var(d.i64())
		nInstrs := d.sliceLen()
		if d.err != nil {
			return nil
		}
		nd.Instrs = make([]ir.Instr, nInstrs)
		for j := 0; j < nInstrs; j++ {
			in := &nd.Instrs[j]
			in.Op = ir.Op(d.byte())
			in.Dst = ir.Var(d.i64())
			in.A = ir.Var(d.i64())
			in.B = ir.Var(d.i64())
			in.K = d.i64()
			in.Callee = d.str()
			nArgs := d.sliceLen()
			if d.err != nil {
				return nil
			}
			in.Args = make([]ir.Var, nArgs)
			for k := 0; k < nArgs; k++ {
				in.Args[k] = ir.Var(d.i64())
			}
		}
	}
	nEdges := d.sliceLen()
	for i := 0; i < nEdges; i++ {
		from, to := d.int(), d.int()
		if d.err != nil || from < 0 || from >= nNodes || to < 0 || to >= nNodes {
			d.fail()
			return nil
		}
		g.AddEdge(cfg.NodeID(from), cfg.NodeID(to))
	}
	if d.err != nil || entry < 0 || entry >= nNodes || exit < 0 || exit >= nNodes {
		d.fail()
		return nil
	}
	g.Entry, g.Exit = cfg.NodeID(entry), cfg.NodeID(exit)
	if err := g.Validate(numVars); err != nil {
		d.fail()
		return nil
	}
	return g
}

// --- Profiles -------------------------------------------------------------

// encodeProfile writes a Ball-Larus profile in canonical (sorted) order.
func encodeProfile(e *enc, pr *bl.Profile) {
	e.str(pr.FuncName)
	encodeIDs(e, cfg.SortedEdgeIDs(pr.R))
	keys := make([]string, 0, len(pr.Entries))
	for k := range pr.Entries {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		ent := pr.Entries[k]
		encodeIDs(e, ent.Path.Edges)
		e.i64(ent.Count)
	}
}

// decodeProfile reads a profile whose edge IDs must lie within g.
func decodeProfile(d *dec, g *cfg.Graph) *bl.Profile {
	name := d.str()
	R := map[cfg.EdgeID]bool{}
	for _, eid := range decodeIDs[cfg.EdgeID](d, g.NumEdges()) {
		R[eid] = true
	}
	pr := bl.NewProfile(name, R)
	nEntries := d.sliceLen()
	for i := 0; i < nEntries; i++ {
		edges := decodeIDs[cfg.EdgeID](d, g.NumEdges())
		count := d.i64()
		if d.err != nil || count < 0 {
			d.fail()
			return nil
		}
		pr.Add(bl.Path{Edges: edges}, count)
	}
	if d.err != nil {
		return nil
	}
	return pr
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

// EncodeSelect frames a hot-path selection bundle.
func EncodeSelect(meta Meta, hot []bl.Path) []byte {
	return encodeBundle(KindSelect, meta, func(e *enc) { encodeHot(e, hot) })
}

// DecodeSelect decodes a selection bundle; edge IDs are validated
// against the function's graph.
func DecodeSelect(data []byte, g *cfg.Graph) (Meta, []bl.Path, error) {
	return decodeBundle(KindSelect, data, func(d *dec) []bl.Path { return decodeHot(d, g) })
}

// EncodeBaseline frames a CA = 0 baseline-solution bundle.
func EncodeBaseline(meta Meta, sol *constprop.Result) []byte {
	return encodeBundle(KindBaseline, meta, func(e *enc) { encodeSolution(e, sol) })
}

// DecodeBaseline decodes a baseline bundle against the function's own
// graph (which the solution is re-attached to).
func DecodeBaseline(data []byte, g *cfg.Graph, numVars int) (Meta, *constprop.Result, error) {
	return decodeBundle(KindBaseline, data, func(d *dec) *constprop.Result { return decodeSolution(d, g, numVars) })
}

// EncodeAnalyze frames the HPG analysis bundle: the Wegman-Zadek
// solution on the traced graph, without the graph itself (the trace
// bundle owns the graph; the decoder re-attaches).
func EncodeAnalyze(meta Meta, sol *constprop.Result) []byte {
	return encodeBundle(KindAnalyze, meta, func(e *enc) { encodeSolution(e, sol) })
}

// DecodeAnalyze decodes an analyze bundle against the live HPG graph it
// was computed on (revived from the trace bundle or freshly traced —
// the Merkle chain guarantees the shapes agree, and the decoder
// re-validates them).
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

// EncodeTrace frames a traced-HPG bundle: the traced graph plus its
// per-node and per-edge maps back to the original function. The
// automaton is not re-encoded — the trace key chains the automaton key,
// so the decoder receives the same automaton the graph was traced with.
func EncodeTrace(meta Meta, h *trace.HPG) []byte {
	return encodeBundle(KindTrace, meta, func(e *enc) {
		encodeGraph(e, h.G)
		for _, v := range h.OrigNode {
			e.i64(int64(v))
		}
		for _, q := range h.State {
			e.i64(int64(q))
		}
		for _, eid := range h.OrigEdge {
			e.i64(int64(eid))
		}
	})
}

// DecodeTrace decodes a trace bundle for fn, reassembling the HPG
// around the supplied automaton with full revalidation.
func DecodeTrace(data []byte, fn *cfg.Func, a *automaton.Automaton) (Meta, *trace.HPG, error) {
	return decodeBundle(KindTrace, data, func(d *dec) *trace.HPG {
		g := decodeGraph(d, fn.NumVars())
		if d.err != nil {
			return nil
		}
		origNode := make([]cfg.NodeID, g.NumNodes())
		for i := range origNode {
			origNode[i] = cfg.NodeID(d.i64())
		}
		state := make([]automaton.State, g.NumNodes())
		for i := range state {
			state[i] = automaton.State(d.i64())
		}
		origEdge := make([]cfg.EdgeID, g.NumEdges())
		for i := range origEdge {
			origEdge[i] = cfg.EdgeID(d.i64())
		}
		if d.err != nil {
			return nil
		}
		h, err := trace.Assemble(fn, a, g, origNode, state, origEdge)
		if err != nil {
			d.fail()
		}
		return h
	})
}

// EncodeTranslate frames a translated-profile bundle (the training
// profile re-expressed on the HPG, Lemma 2).
func EncodeTranslate(meta Meta, prof *bl.Profile) []byte {
	return encodeBundle(KindTranslate, meta, func(e *enc) { encodeProfile(e, prof) })
}

// DecodeTranslate decodes a translate bundle against the live HPG graph
// whose edges the profile's paths traverse.
func DecodeTranslate(data []byte, g *cfg.Graph) (Meta, *bl.Profile, error) {
	return decodeBundle(KindTranslate, data, func(d *dec) *bl.Profile { return decodeProfile(d, g) })
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
		class := decodeIDs[int](d, h.G.NumNodes())
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
