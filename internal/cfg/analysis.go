package cfg

import "sort"

// DFS holds the result of a depth-first traversal from Entry: preorder and
// reverse-postorder numbers plus the set of retreating edges.
//
// Retreating edges (tail's DFS interval contains the head) are what the
// Ball-Larus profiler must record across: they are part of the minimal
// recording-edge set because removing them makes the graph acyclic. The
// traversal visits successors in slot order, so the result is
// deterministic for a given graph.
type DFS struct {
	Pre        []int // preorder number per node, -1 if unreachable
	RPO        []int // reverse-postorder number per node, -1 if unreachable
	RPOOrder   []NodeID
	Retreating []bool // per EdgeID: whether the edge is retreating
	reach      int
}

// DepthFirst traverses g from Entry.
func (g *Graph) DepthFirst() *DFS {
	d := &DFS{
		Pre:        make([]int, len(g.Nodes)),
		RPO:        make([]int, len(g.Nodes)),
		Retreating: make([]bool, len(g.Edges)),
	}
	for i := range d.Pre {
		d.Pre[i] = -1
		d.RPO[i] = -1
	}
	post := make([]NodeID, 0, len(g.Nodes))
	// state: 0 unvisited, 1 on stack (open), 2 done
	state := make([]uint8, len(g.Nodes))
	preN := 0

	// Iterative DFS with explicit stack to survive deep graphs.
	type frame struct {
		n    NodeID
		slot int
	}
	stack := append(make([]frame, 0, len(g.Nodes)), frame{g.Entry, 0})
	d.Pre[g.Entry] = preN
	preN++
	state[g.Entry] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd := g.Node(f.n)
		if f.slot < len(nd.Out) {
			eid := nd.Out[f.slot]
			f.slot++
			to := g.Edge(eid).To
			switch state[to] {
			case 0:
				d.Pre[to] = preN
				preN++
				state[to] = 1
				stack = append(stack, frame{to, 0})
			case 1:
				// Target still open: a retreating edge.
				d.Retreating[eid] = true
			}
			continue
		}
		state[f.n] = 2
		post = append(post, f.n)
		stack = stack[:len(stack)-1]
	}
	d.reach = len(post)
	for i, n := range post {
		rpo := len(post) - 1 - i
		d.RPO[n] = rpo
	}
	d.RPOOrder = make([]NodeID, len(post))
	for i, n := range post {
		d.RPOOrder[len(post)-1-i] = n
	}
	return d
}

// Reachable reports whether node n was reached from Entry.
func (d *DFS) Reachable(n NodeID) bool { return d.Pre[n] >= 0 }

// NumReachable returns the number of nodes reachable from Entry.
func (d *DFS) NumReachable() int { return d.reach }

// Dominators holds the immediate-dominator tree of a graph, computed with
// the Cooper-Harvey-Kennedy iterative algorithm over reverse postorder.
type Dominators struct {
	Idom []NodeID // immediate dominator per node; Entry's is itself; NoNode if unreachable
	dfs  *DFS
}

// ComputeDominators builds the dominator tree of g.
func (g *Graph) ComputeDominators() *Dominators {
	dfs := g.DepthFirst()
	idom := make([]NodeID, len(g.Nodes))
	for i := range idom {
		idom[i] = NoNode
	}
	idom[g.Entry] = g.Entry
	changed := true
	for changed {
		changed = false
		for _, n := range dfs.RPOOrder {
			if n == g.Entry {
				continue
			}
			var newIdom NodeID = NoNode
			for _, eid := range g.Node(n).In {
				p := g.Edge(eid).From
				if idom[p] == NoNode {
					continue // predecessor not processed yet / unreachable
				}
				if newIdom == NoNode {
					newIdom = p
				} else {
					newIdom = intersect(idom, dfs.RPO, newIdom, p)
				}
			}
			if newIdom != NoNode && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	return &Dominators{Idom: idom, dfs: dfs}
}

func intersect(idom []NodeID, rpo []int, a, b NodeID) NodeID {
	for a != b {
		for rpo[a] > rpo[b] {
			a = idom[a]
		}
		for rpo[b] > rpo[a] {
			b = idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively).
func (d *Dominators) Dominates(a, b NodeID) bool {
	if d.Idom[b] == NoNode {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.Idom[b]
		if next == b {
			return false // reached the root without meeting a
		}
		b = next
	}
}

// BackEdges returns the edges whose target dominates their source: the back
// edges of natural loops. On a reducible graph these coincide with the
// retreating edges; on an irreducible graph (such as the hot path graphs
// tracing produces — paper §4.1) some retreating edges are not back edges.
func (g *Graph) BackEdges() map[EdgeID]bool {
	dom := g.ComputeDominators()
	back := map[EdgeID]bool{}
	for _, e := range g.Edges {
		if dom.Idom[e.From] == NoNode {
			continue
		}
		if dom.Dominates(e.To, e.From) {
			back[e.ID] = true
		}
	}
	return back
}

// Reducible reports whether every retreating edge is a back edge in a
// natural loop. The paper observes that data-flow tracing can make a
// reducible CFG irreducible, so pathflow's solvers are iterative rather
// than elimination-based.
func (g *Graph) Reducible() bool {
	dfs := g.DepthFirst()
	back := g.BackEdges()
	for eid, retreating := range dfs.Retreating {
		if retreating && !back[EdgeID(eid)] {
			return false
		}
	}
	return true
}

// Loop describes one natural loop.
type Loop struct {
	Head NodeID
	Body []NodeID // sorted, includes Head
}

// NaturalLoops returns the natural loops of g, one per back-edge target
// (bodies of back edges sharing a header are merged), ordered by header ID.
func (g *Graph) NaturalLoops() []Loop {
	back := g.BackEdges()
	bodies := map[NodeID]map[NodeID]bool{}
	for eid := range back {
		e := g.Edge(eid)
		head := e.To
		body := bodies[head]
		if body == nil {
			body = map[NodeID]bool{head: true}
			bodies[head] = body
		}
		// Walk backwards from the tail collecting nodes that reach the
		// tail without passing through the header.
		var stack []NodeID
		if !body[e.From] {
			body[e.From] = true
			stack = append(stack, e.From)
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, in := range g.Node(n).In {
				p := g.Edge(in).From
				if !body[p] {
					body[p] = true
					stack = append(stack, p)
				}
			}
		}
	}
	heads := make([]NodeID, 0, len(bodies))
	for h := range bodies {
		heads = append(heads, h)
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	loops := make([]Loop, 0, len(heads))
	for _, h := range heads {
		var ns []NodeID
		for n := range bodies[h] {
			ns = append(ns, n)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		loops = append(loops, Loop{Head: h, Body: ns})
	}
	return loops
}
