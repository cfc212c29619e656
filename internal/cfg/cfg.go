// Package cfg provides the control-flow graph on which every pathflow
// analysis runs.
//
// Edges are first-class values with stable identities because the rest of
// the system — Ball-Larus recording edges, the qualification automaton
// (whose alphabet is the edge set), and Holley-Rosen tracing — all label
// things by *edges*, not by (from,to) pairs.
//
// A Graph always has a distinguished empty Entry node and a distinguished
// empty Exit node. Every path the profiler records runs from the target of
// a recording edge to the target of a recording edge (paper §2.3), and the
// minimal recording-edge set is "edges from the entry vertex, edges into
// the exit vertex, and retreating edges".
package cfg

import (
	"fmt"
	"sync/atomic"

	"pathflow/internal/ir"
)

// NodeID identifies a node within one Graph.
type NodeID int32

// EdgeID identifies an edge within one Graph.
type EdgeID int32

// NoNode and NoEdge are invalid sentinels.
const (
	NoNode NodeID = -1
	NoEdge EdgeID = -1
)

// TermKind says how control leaves a node.
type TermKind uint8

const (
	// TermJump transfers to the single successor.
	TermJump TermKind = iota
	// TermBranch tests Cond: successor edge 0 is taken when Cond != 0,
	// successor edge 1 when Cond == 0.
	TermBranch
	// TermReturn leaves the function (its single successor edge leads to
	// Exit). Ret holds the returned register or ir.NoVar.
	TermReturn
	// TermHalt marks the Exit node itself; it has no successors.
	TermHalt
)

func (k TermKind) String() string {
	switch k {
	case TermJump:
		return "jump"
	case TermBranch:
		return "branch"
	case TermReturn:
		return "return"
	case TermHalt:
		return "halt"
	}
	return fmt.Sprintf("term(%d)", uint8(k))
}

// Node is a basic block: straight-line instructions plus a terminator.
type Node struct {
	ID   NodeID
	Name string // optional label for diagnostics ("A", "B", ...)
	// Instrs is the block body. A hot path graph and its reduction do
	// not own theirs: every duplicate of an original vertex aliases the
	// original block, capped at its length so that an append copies.
	// Passes that rewrite blocks in place (opt.Fold, FoldIntervals,
	// DeleteDead) therefore need an owned graph: a Graph.Clone.
	Instrs []ir.Instr
	Kind   TermKind
	Cond   ir.Var // TermBranch only
	Ret    ir.Var // TermReturn only; ir.NoVar if void
	Out    []EdgeID
	In     []EdgeID
}

// Edge is a directed control-flow edge.
type Edge struct {
	ID   EdgeID
	From NodeID
	To   NodeID
	// Slot is the index of this edge in From's Out list: 0 for a jump or
	// the true leg, 1 for the false leg of a branch.
	Slot int
}

// Graph is a single function's control-flow graph.
type Graph struct {
	Name  string
	Nodes []*Node
	Edges []*Edge
	Entry NodeID
	Exit  NodeID

	cols   atomic.Pointer[Columns] // Columns, once built
	colsOf *Graph                  // set by ShareColumns
}

// New returns a graph containing only Entry and Exit nodes. The entry node
// is a TermJump with no successor yet; callers connect it with AddEdge.
func New(name string) *Graph {
	g := &Graph{Name: name}
	g.Entry = g.AddNode("entry")
	g.Exit = g.AddNode("exit")
	g.Node(g.Exit).Kind = TermHalt
	return g
}

// AddNode appends a new node with the given diagnostic name and returns
// its ID. The node starts as a TermJump with no instructions.
func (g *Graph) AddNode(name string) NodeID {
	id := NodeID(len(g.Nodes))
	g.Nodes = append(g.Nodes, &Node{ID: id, Name: name, Cond: ir.NoVar, Ret: ir.NoVar})
	return id
}

// AddEdge appends a control-flow edge from -> to and returns its ID. Edges
// must be added in successor-slot order (true leg before false leg).
func (g *Graph) AddEdge(from, to NodeID) EdgeID {
	id := EdgeID(len(g.Edges))
	f, t := g.Node(from), g.Node(to)
	e := &Edge{ID: id, From: from, To: to, Slot: len(f.Out)}
	g.Edges = append(g.Edges, e)
	f.Out = append(f.Out, id)
	t.In = append(t.In, id)
	return id
}

// FromSlabs returns the graph whose nodes and edges are the given
// slabs, in ID order, and keeps both: it sets every node's and edge's
// ID, numbers each edge's Slot by its place among its source's
// out-edges, and carves every Out and In list from one arena, each
// capped at its length. Edges must list each node's out-edges in slot
// order, and every endpoint must be in range; the nodes' own Out and In
// are overwritten. The caller sets Entry and Exit. A graph built at its
// final size this way costs a fixed number of allocations however many
// nodes and edges it has; AddNode and AddEdge remain the way to grow
// one.
func FromSlabs(name string, nodes []Node, edges []Edge) *Graph {
	g := &Graph{Name: name, Nodes: make([]*Node, len(nodes)), Edges: make([]*Edge, len(edges))}
	// deg[n] and deg[len(nodes)+n] count n's out- and in-edges.
	deg := make([]int32, 2*len(nodes))
	for i := range edges {
		deg[edges[i].From]++
		deg[len(nodes)+int(edges[i].To)]++
	}
	arena := make([]EdgeID, 2*len(edges))
	off := int32(0)
	for i, k := range deg {
		var list []EdgeID // nil for no edges, as AddNode leaves it
		if k > 0 {
			list = arena[off : off : off+k]
		}
		if i < len(nodes) {
			nodes[i].Out = list
		} else {
			nodes[i-len(nodes)].In = list
		}
		off += k
	}
	for i := range nodes {
		nodes[i].ID = NodeID(i)
		g.Nodes[i] = &nodes[i]
	}
	for i := range edges {
		e := &edges[i]
		e.ID = EdgeID(i)
		f, t := &nodes[e.From], &nodes[e.To]
		e.Slot = len(f.Out)
		// Both appends stay inside the lists' carved capacity.
		f.Out = append(f.Out, e.ID)
		t.In = append(t.In, e.ID)
		g.Edges[i] = e
	}
	return g
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) *Edge { return g.Edges[id] }

// NumNodes returns the node count (including Entry and Exit).
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// NumInstrs returns the total static instruction count of the graph.
func (g *Graph) NumInstrs() int {
	n := 0
	for _, nd := range g.Nodes {
		n += len(nd.Instrs)
	}
	return n
}

// Succ returns the node reached by out-edge slot of n, or NoNode.
func (g *Graph) Succ(n NodeID, slot int) NodeID {
	nd := g.Node(n)
	if slot >= len(nd.Out) {
		return NoNode
	}
	return g.Edge(nd.Out[slot]).To
}

// OutEdge returns the edge in the given successor slot of n, or NoEdge.
func (g *Graph) OutEdge(n NodeID, slot int) EdgeID {
	nd := g.Node(n)
	if slot >= len(nd.Out) {
		return NoEdge
	}
	return nd.Out[slot]
}

// Func couples a graph with its register table.
type Func struct {
	Name     string
	Params   []ir.Var // parameter registers, in declaration order
	VarNames []string // len(VarNames) == NumVars; "" for temporaries
	G        *Graph
}

// NumVars returns the number of virtual registers of the function.
func (f *Func) NumVars() int { return len(f.VarNames) }

// VarName returns the diagnostic name of register v.
func (f *Func) VarName(v ir.Var) string {
	if v.Valid() && int(v) < len(f.VarNames) && f.VarNames[v] != "" {
		return f.VarNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Program is a set of functions; Order preserves declaration order and
// names the entry function first if present.
type Program struct {
	Funcs map[string]*Func
	Order []string
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{Funcs: map[string]*Func{}} }

// Add registers a function, preserving insertion order.
func (p *Program) Add(f *Func) {
	if _, dup := p.Funcs[f.Name]; !dup {
		p.Order = append(p.Order, f.Name)
	}
	p.Funcs[f.Name] = f
}

// Main returns the entry function ("main" if present, else the first
// declared), or nil for an empty program.
func (p *Program) Main() *Func {
	if f, ok := p.Funcs["main"]; ok {
		return f
	}
	if len(p.Order) > 0 {
		return p.Funcs[p.Order[0]]
	}
	return nil
}

// NumInstrs returns the total static instruction count of the program.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.G.NumInstrs()
	}
	return n
}

// NumNodes returns the total CFG node count of the program (the "Nodes"
// column of the paper's Table 1).
func (p *Program) NumNodes() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.G.NumNodes()
	}
	return n
}

// Clone deep-copies the graph: nodes, instruction slices and edges. The
// optimizer folds instructions in place, so callers that need to keep the
// analyzed graph intact hand it a clone. The clone owns its blocks even
// when g is a tier whose blocks alias the original function's, so the
// in-place passes may rewrite a clone of any graph, and no other.
func (g *Graph) Clone() *Graph {
	out := &Graph{Name: g.Name, Entry: g.Entry, Exit: g.Exit}
	out.Nodes = make([]*Node, len(g.Nodes))
	for i, n := range g.Nodes {
		c := *n
		c.Instrs = append([]ir.Instr(nil), n.Instrs...)
		c.Out = append([]EdgeID(nil), n.Out...)
		c.In = append([]EdgeID(nil), n.In...)
		out.Nodes[i] = &c
	}
	out.Edges = make([]*Edge, len(g.Edges))
	for i, e := range g.Edges {
		c := *e
		out.Edges[i] = &c
	}
	return out
}

// CloneFunc deep-copies a function (sharing the immutable name tables).
func (f *Func) CloneFunc() *Func {
	return &Func{Name: f.Name, Params: f.Params, VarNames: f.VarNames, G: f.G.Clone()}
}

// Validate checks the structural invariants the rest of the system relies
// on: terminator arity, edge symmetry, slot consistency, register ranges,
// and that Exit is the only halting node.
func (g *Graph) Validate(numVars int) error { return g.validate(numVars, true) }

// ValidateStructure checks every invariant Validate does except the
// instructions' own: terminator arity, edge symmetry, slots, the
// branch-condition range and the exit. It is the check for a graph
// whose blocks alias an already validated graph's, as every hot path
// graph and reduction does: Validate on the original covered those
// instructions, and no pass rewrites a block it does not own.
func (g *Graph) ValidateStructure(numVars int) error { return g.validate(numVars, false) }

func (g *Graph) validate(numVars int, instrs bool) error {
	if g.Entry < 0 || int(g.Entry) >= len(g.Nodes) || g.Exit < 0 || int(g.Exit) >= len(g.Nodes) {
		return fmt.Errorf("cfg %s: entry/exit out of range", g.Name)
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case TermJump, TermReturn:
			if len(n.Out) != 1 {
				return fmt.Errorf("cfg %s: node %s(%d) is %v with %d out-edges", g.Name, n.Name, n.ID, n.Kind, len(n.Out))
			}
			if n.Kind == TermReturn && g.Edge(n.Out[0]).To != g.Exit {
				return fmt.Errorf("cfg %s: return node %s(%d) does not lead to exit", g.Name, n.Name, n.ID)
			}
		case TermBranch:
			if len(n.Out) != 2 {
				return fmt.Errorf("cfg %s: branch node %s(%d) has %d out-edges", g.Name, n.Name, n.ID, len(n.Out))
			}
			if !n.Cond.Valid() || int(n.Cond) >= numVars {
				return fmt.Errorf("cfg %s: branch node %s(%d) has invalid condition register", g.Name, n.Name, n.ID)
			}
		case TermHalt:
			if n.ID != g.Exit {
				return fmt.Errorf("cfg %s: non-exit node %s(%d) halts", g.Name, n.Name, n.ID)
			}
			if len(n.Out) != 0 {
				return fmt.Errorf("cfg %s: exit node has out-edges", g.Name)
			}
		default:
			return fmt.Errorf("cfg %s: node %s(%d) has unknown terminator %d", g.Name, n.Name, n.ID, uint8(n.Kind))
		}
		for slot, eid := range n.Out {
			e := g.Edge(eid)
			if e.From != n.ID || e.Slot != slot {
				return fmt.Errorf("cfg %s: edge %d out-list mismatch at node %s(%d)", g.Name, eid, n.Name, n.ID)
			}
		}
		for _, eid := range n.In {
			if g.Edge(eid).To != n.ID {
				return fmt.Errorf("cfg %s: edge %d in-list mismatch at node %s(%d)", g.Name, eid, n.Name, n.ID)
			}
		}
		for i := 0; instrs && i < len(n.Instrs); i++ {
			if err := n.Instrs[i].Validate(numVars); err != nil {
				return fmt.Errorf("cfg %s: node %s(%d) instr %d: %w", g.Name, n.Name, n.ID, i, err)
			}
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || int(e.From) >= len(g.Nodes) || e.To < 0 || int(e.To) >= len(g.Nodes) {
			return fmt.Errorf("cfg %s: edge %d endpoint out of range", g.Name, e.ID)
		}
	}
	return nil
}
