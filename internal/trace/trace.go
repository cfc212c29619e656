// Package trace implements Holley-Rosen data-flow tracing as extended by
// Ammons & Larus (PLDI 1998), Figure 4: given a control-flow graph G and a
// qualification automaton A, it constructs the hot path graph (HPG)
// GA whose vertices are the reachable pairs (v, q) of CFG vertex and
// automaton state, and whose edges mirror G's edges filtered through A's
// transitions. Recording edges of G are marked again in the HPG, so the
// original path profile remains interpretable (paper §4.2, Lemmas 1-2).
//
// Hot paths end in distinct automaton states, so their vertices are
// duplicated away from the cold paths and a data-flow analysis run on the
// HPG cannot merge hot-path facts with cold-path facts.
package trace

import (
	"fmt"
	"strconv"

	"pathflow/internal/automaton"
	"pathflow/internal/cfg"
)

// HPG is a traced hot path graph.
type HPG struct {
	// Fn is the original function.
	Fn *cfg.Func
	// Auto is the qualification automaton used for tracing.
	Auto *automaton.Automaton
	// G is the traced graph. Its node and edge IDs are its own; use
	// OrigNode/State/OrigEdge to map back.
	G *cfg.Graph
	// OrigNode[n] is the original vertex of HPG node n.
	OrigNode []cfg.NodeID
	// State[n] is the automaton state of HPG node n.
	State []automaton.State
	// OrigEdge[e] is the original edge that HPG edge e duplicates; it is
	// also the edge's automaton-alphabet label.
	OrigEdge []cfg.EdgeID
	// Recording is the recording-edge set of the HPG: an HPG edge is
	// recording iff its original edge is.
	Recording map[cfg.EdgeID]bool

	pairs map[pairKey]cfg.NodeID
}

type pairKey struct {
	v cfg.NodeID
	q automaton.State
}

// Build traces fn's graph against automaton a, whose recording-edge set
// must be the one fn was profiled with.
//
// It first discovers the reachable pairs and the edges between them:
// pair i becomes node i in the order the worklist finds it, and each
// popped pair's out-edges, in its original vertex's slot order, take
// the next edge IDs. Then it materializes the graph once, at its final
// size (cfg.FromSlabs). Every node aliases its original vertex's block.
func Build(fn *cfg.Func, a *automaton.Automaton) (*HPG, error) {
	g := fn.G
	h := &HPG{
		Fn:        fn,
		Auto:      a,
		OrigNode:  make([]cfg.NodeID, 0, g.NumNodes()),
		State:     make([]automaton.State, 0, g.NumNodes()),
		Recording: map[cfg.EdgeID]bool{},
		pairs:     make(map[pairKey]cfg.NodeID, g.NumNodes()),
	}
	// popped lists the pairs in the order their out-edges were
	// numbered; to[e] is the target pair of edge e.
	popped := make([]cfg.NodeID, 0, g.NumNodes())
	to := make([]cfg.NodeID, 0, g.NumEdges())
	entry := h.addPair(g.Entry, a.Start())
	worklist := []cfg.NodeID{entry}
	for len(worklist) > 0 {
		hn := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		popped = append(popped, hn)
		v, q := h.OrigNode[hn], h.State[hn]
		for _, eid := range g.Node(v).Out {
			e := g.Edge(eid)
			q2 := a.Step(q, eid)
			hn2, ok := h.pairs[pairKey{e.To, q2}]
			if !ok {
				hn2 = h.addPair(e.To, q2)
				worklist = append(worklist, hn2)
			}
			to = append(to, hn2)
		}
	}

	// The exit pair is (exit, q•): edges into exit are recording, and
	// every recording edge drives the automaton to q•. If the original
	// exit is unreachable the pair is created detached so the graph
	// still has a well-formed exit.
	exitNode, ok := h.pairs[pairKey{g.Exit, automaton.StateDot}]
	if !ok {
		exitNode = h.addPair(g.Exit, automaton.StateDot)
	}

	nodes := make([]cfg.Node, len(h.OrigNode))
	h.nameNodes(nodes)
	for i, v := range h.OrigNode {
		orig, nd := g.Node(v), &nodes[i]
		nd.Instrs = orig.Instrs[:len(orig.Instrs):len(orig.Instrs)]
		nd.Kind, nd.Cond, nd.Ret = orig.Kind, orig.Cond, orig.Ret
	}
	edges := make([]cfg.Edge, len(to))
	h.OrigEdge = make([]cfg.EdgeID, len(to))
	he := 0
	for _, hn := range popped {
		for _, eid := range g.Node(h.OrigNode[hn]).Out {
			edges[he] = cfg.Edge{From: hn, To: to[he]}
			h.OrigEdge[he] = eid
			if a.R[eid] {
				h.Recording[cfg.EdgeID(he)] = true
			}
			he++
		}
	}
	h.G = cfg.FromSlabs(g.Name+"#hpg", nodes, edges)
	h.G.Entry, h.G.Exit = entry, exitNode
	// Every HPG block is one of g's.
	h.G.ShareColumns(g)

	if err := h.G.ValidateStructure(fn.NumVars()); err != nil {
		return nil, fmt.Errorf("trace: produced invalid HPG: %w", err)
	}
	return h, nil
}

// addPair numbers the HPG node for (v, q).
func (h *HPG) addPair(v cfg.NodeID, q automaton.State) cfg.NodeID {
	id := cfg.NodeID(len(h.OrigNode))
	h.OrigNode = append(h.OrigNode, v)
	h.State = append(h.State, q)
	h.pairs[pairKey{v, q}] = id
	return id
}

// nameNodes names node i after its original vertex and its automaton
// state ("B" and state 2 make "B2"). The names are substrings of one
// string.
func (h *HPG) nameNodes(nodes []cfg.Node) {
	ends := make([]int, len(nodes))
	var buf []byte
	for i, v := range h.OrigNode {
		if name := h.Fn.G.Node(v).Name; name != "" {
			buf = append(buf, name...)
		} else {
			buf = append(buf, 'n')
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		buf = h.Auto.AppendName(buf, h.State[i])
		ends[i] = len(buf)
	}
	names, start := string(buf), 0
	for i, end := range ends {
		nodes[i].Name = names[start:end]
		start = end
	}
}

// Assemble reconstructs an HPG from its parts — the traced graph and
// the per-node/per-edge maps back to the original function — rebuilding
// the derived state (the pair index and the recording-edge set) that
// Build computes incrementally. Every structural invariant is
// re-validated, so inconsistent parts yield an error, never a malformed
// graph. The pipeline no longer calls it: the disk tier stores no HPG,
// because Build is deterministic and cheaper than decoding one was. Its
// one non-test caller is perfbench's probe, which times it.
func Assemble(fn *cfg.Func, a *automaton.Automaton, g *cfg.Graph, origNode []cfg.NodeID, state []automaton.State, origEdge []cfg.EdgeID) (*HPG, error) {
	if len(origNode) != g.NumNodes() || len(state) != g.NumNodes() {
		return nil, fmt.Errorf("trace: assemble: %d nodes but %d/%d node maps",
			g.NumNodes(), len(origNode), len(state))
	}
	if len(origEdge) != g.NumEdges() {
		return nil, fmt.Errorf("trace: assemble: %d edges but %d edge maps",
			g.NumEdges(), len(origEdge))
	}
	if err := g.Validate(fn.NumVars()); err != nil {
		return nil, fmt.Errorf("trace: assemble: invalid HPG: %w", err)
	}
	h := &HPG{
		Fn:        fn,
		Auto:      a,
		G:         g,
		OrigNode:  origNode,
		State:     state,
		OrigEdge:  origEdge,
		Recording: map[cfg.EdgeID]bool{},
		pairs:     make(map[pairKey]cfg.NodeID, g.NumNodes()),
	}
	numStates := automaton.State(a.NumStates())
	for n, v := range origNode {
		if v < 0 || int(v) >= fn.G.NumNodes() {
			return nil, fmt.Errorf("trace: assemble: node %d maps to original vertex %d out of range", n, v)
		}
		if state[n] < 0 || state[n] >= numStates {
			return nil, fmt.Errorf("trace: assemble: node %d carries state %d out of range", n, state[n])
		}
		key := pairKey{v, state[n]}
		if _, dup := h.pairs[key]; dup {
			return nil, fmt.Errorf("trace: assemble: duplicate pair (%d, %d)", v, state[n])
		}
		h.pairs[key] = cfg.NodeID(n)
	}
	for e, oe := range origEdge {
		if oe < 0 || int(oe) >= fn.G.NumEdges() {
			return nil, fmt.Errorf("trace: assemble: edge %d maps to original edge %d out of range", e, oe)
		}
		if a.R[oe] {
			h.Recording[cfg.EdgeID(e)] = true
		}
	}
	return h, nil
}

// NodeFor returns the HPG node representing (v, q), if it was reached.
func (h *HPG) NodeFor(v cfg.NodeID, q automaton.State) (cfg.NodeID, bool) {
	n, ok := h.pairs[pairKey{v, q}]
	return n, ok
}

// StartNode returns the HPG node (v, q•): the node where Ball-Larus paths
// beginning at original vertex v start in the HPG (Lemma 2).
func (h *HPG) StartNode(v cfg.NodeID) (cfg.NodeID, bool) {
	return h.NodeFor(v, automaton.StateDot)
}

// Duplicates returns how many HPG vertices represent each original vertex.
func (h *HPG) Duplicates() map[cfg.NodeID]int {
	d := map[cfg.NodeID]int{}
	for _, v := range h.OrigNode {
		d[v]++
	}
	return d
}

// Func wraps the HPG in a cfg.Func sharing the original's register table,
// so the interpreter can execute the traced graph directly (used by the
// differential soundness tests: the HPG must behave identically to the
// original program).
func (h *HPG) Func() *cfg.Func {
	return &cfg.Func{
		Name:     h.Fn.Name,
		Params:   h.Fn.Params,
		VarNames: h.Fn.VarNames,
		G:        h.G,
	}
}

// Growth returns the relative size increase of the HPG over the original
// graph in nodes: (|HPG| - |G|) / |G| (the quantity of the paper's
// Figure 11).
func (h *HPG) Growth() float64 {
	o := h.Fn.G.NumNodes()
	return float64(h.G.NumNodes()-o) / float64(o)
}

// OverlayGraph, OverlayStart and OverlayRecording implement the overlay
// interface used by profile translation (internal/profile).
func (h *HPG) OverlayGraph() *cfg.Graph { return h.G }

// OverlayStart returns the overlay node where paths starting at original
// vertex v begin.
func (h *HPG) OverlayStart(v cfg.NodeID) (cfg.NodeID, bool) { return h.StartNode(v) }

// OverlayRecording returns the overlay's recording-edge set.
func (h *HPG) OverlayRecording() map[cfg.EdgeID]bool { return h.Recording }

// OverlayOrigEdge returns the original edge an overlay edge duplicates.
func (h *HPG) OverlayOrigEdge(e cfg.EdgeID) cfg.EdgeID { return h.OrigEdge[e] }
