// Package automaton builds the qualification automaton of Ammons & Larus
// (PLDI 1998), §3: an Aho-Corasick keyword recognizer whose keywords are
// the hot Ball-Larus paths with their final recording edge trimmed.
//
// The alphabet is the edge set of the control-flow graph, plus the
// abstract • symbol standing for "any recording edge". Because a
// Ball-Larus path contains no recording edge except its last — which
// trimming removes — Theorem 2 of the paper shows the Aho-Corasick
// failure function is trivial:
//
//	h(q, a) = q•  when a is a recording edge,
//	h(q, a) = qε  otherwise.
//
// Consequently the automaton stores only retrieval-tree (trie) edges; a
// Step that leaves the trie falls back to q• or qε directly.
//
// States are numbered canonically: qε = 0, q• = 1, and trie states in
// breadth-first order with children visited in edge-ID order. Under this
// numbering the running example of the paper reproduces Figure 3 and the
// vertex names of Figure 5 (A0, B1, ..., H14, I17) exactly, via Name.
package automaton

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
)

// State identifies an automaton state.
type State int32

// Distinguished states (Definition 9 names q•).
const (
	// StateEpsilon is qε: no keyword prefix is in progress.
	StateEpsilon State = 0
	// StateDot is q•: a recording edge was just crossed, so a fresh
	// keyword (hot path) may begin here.
	StateDot State = 1
)

// Automaton is the qualification automaton.
type Automaton struct {
	// R is the recording-edge set the keywords were trimmed against.
	R map[cfg.EdgeID]bool
	// trans[q] holds the retrieval-tree edges out of q, keyed by CFG
	// edge. Only trie edges are stored (Theorem 2).
	trans []map[cfg.EdgeID]State
	// accept[q] marks states that complete a trimmed hot path.
	accept []bool
	// depth[q] is the trie depth (qε = 0, q• = 1).
	depth []int32
	// numKeywords counts the distinct trimmed hot paths inserted.
	numKeywords int
}

// New builds the automaton for the given hot paths. Paths must be valid
// Ball-Larus paths of g under R; their final recording edges are trimmed
// here. Duplicate hot paths are tolerated and counted once.
func New(g *cfg.Graph, R map[cfg.EdgeID]bool, hot []bl.Path) (*Automaton, error) {
	a := &Automaton{R: R}
	// Build the trie with provisional numbering, then renumber BFS.
	type node struct {
		children map[cfg.EdgeID]int
		accept   bool
	}
	// node 0 = qε, node 1 = q•. qε has the single •-child q•, which is
	// represented implicitly (• matches any recording edge).
	nodes := []*node{{children: map[cfg.EdgeID]int{}}, {children: map[cfg.EdgeID]int{}}}
	for _, p := range hot {
		if err := p.Validate(g, R); err != nil {
			return nil, fmt.Errorf("automaton: hot path invalid: %w", err)
		}
		trimmed := p.Trimmed()
		cur := 1 // after the leading •
		for _, e := range trimmed.Edges {
			if R[e] {
				return nil, fmt.Errorf("automaton: trimmed path %s contains recording edge %d", trimmed.Key(), e)
			}
			next, ok := nodes[cur].children[e]
			if !ok {
				next = len(nodes)
				nodes = append(nodes, &node{children: map[cfg.EdgeID]int{}})
				nodes[cur].children[e] = next
			}
			cur = next
		}
		if !nodes[cur].accept {
			a.numKeywords++
			nodes[cur].accept = true
		}
	}
	// Canonical breadth-first renumbering, children in edge-ID order.
	renum := make([]State, len(nodes))
	for i := range renum {
		renum[i] = -1
	}
	renum[0], renum[1] = StateEpsilon, StateDot
	order := []int{0, 1}
	a.accept = make([]bool, len(nodes))
	a.depth = make([]int32, len(nodes))
	next := State(2)
	for i := 0; i < len(order); i++ {
		old := order[i]
		edges := make([]cfg.EdgeID, 0, len(nodes[old].children))
		for e := range nodes[old].children {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(x, y int) bool { return edges[x] < edges[y] })
		for _, e := range edges {
			child := nodes[old].children[e]
			renum[child] = next
			next++
			order = append(order, child)
		}
	}
	a.trans = make([]map[cfg.EdgeID]State, len(nodes))
	for old, nd := range nodes {
		q := renum[old]
		m := map[cfg.EdgeID]State{}
		for e, child := range nd.children {
			m[e] = renum[child]
		}
		a.trans[q] = m
		a.accept[q] = nd.accept
	}
	// Depths by BFS over the renumbered trie.
	a.depth[StateEpsilon] = 0
	a.depth[StateDot] = 1
	for i := 1; i < len(order); i++ {
		q := renum[order[i]]
		for _, child := range a.trans[q] {
			a.depth[child] = a.depth[q] + 1
		}
	}
	return a, nil
}

// Step advances the automaton over one CFG edge, applying the trivial
// failure function of Theorem 2 when no trie edge matches.
func (a *Automaton) Step(q State, e cfg.EdgeID) State {
	if t, ok := a.trans[q][e]; ok {
		return t
	}
	if a.R[e] {
		return StateDot
	}
	return StateEpsilon
}

// Start returns the state in which tracing begins at the function's entry
// vertex: qε. The first traversed edge leaves the entry vertex and is
// therefore a recording edge, which moves the automaton to q•.
func (a *Automaton) Start() State { return StateEpsilon }

// NumStates returns the total number of states, including qε and q•.
func (a *Automaton) NumStates() int { return len(a.trans) }

// NumKeywords returns the number of distinct trimmed hot paths.
func (a *Automaton) NumKeywords() int { return a.numKeywords }

// Accepting reports whether q completes a trimmed hot path.
func (a *Automaton) Accepting(q State) bool { return a.accept[q] }

// Depth returns the keyword-prefix length represented by q (counting the
// leading •).
func (a *Automaton) Depth(q State) int { return int(a.depth[q]) }

// Name renders a state the way the paper labels HPG vertices: qε is "ε"
// and trie states are numbered from q0 = q•.
func (a *Automaton) Name(q State) string { return string(a.AppendName(nil, q)) }

// AppendName appends q's Name to dst and returns the extended slice.
func (a *Automaton) AppendName(dst []byte, q State) []byte {
	if q == StateEpsilon {
		return append(dst, "ε"...)
	}
	return strconv.AppendInt(dst, int64(q-1), 10)
}

// --- Serialization support -----------------------------------------------

// TransEdge is one retrieval-tree transition in a Snapshot.
type TransEdge struct {
	Edge cfg.EdgeID
	To   State
}

// Snapshot is an exported, order-canonical view of an automaton's
// retrieval tree, used by the persistent artifact cache to serialize
// automata without widening the package's mutating surface. Trans lists
// each state's trie transitions in increasing edge order; R is not part
// of the snapshot because it is owned by the profile the automaton was
// built against (the deserializer supplies it).
type Snapshot struct {
	Trans       [][]TransEdge
	Accept      []bool
	Depth       []int32
	NumKeywords int
}

// Snapshot returns the canonical serializable view of the automaton.
func (a *Automaton) Snapshot() *Snapshot {
	s := &Snapshot{
		Trans:       make([][]TransEdge, len(a.trans)),
		Accept:      append([]bool(nil), a.accept...),
		Depth:       append([]int32(nil), a.depth...),
		NumKeywords: a.numKeywords,
	}
	for q, m := range a.trans {
		ts := make([]TransEdge, 0, len(m))
		for e, to := range m {
			ts = append(ts, TransEdge{Edge: e, To: to})
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].Edge < ts[j].Edge })
		s.Trans[q] = ts
	}
	return s
}

// FromSnapshot rebuilds an automaton from a snapshot plus the
// recording-edge set R it was built against. Shape invariants are
// validated so a corrupted snapshot yields an error, never a malformed
// automaton: slice lengths must agree, the two distinguished states must
// exist with their fixed depths, and every transition target must be in
// range with a depth one greater than its source (trie property).
func FromSnapshot(R map[cfg.EdgeID]bool, s *Snapshot) (*Automaton, error) {
	n := len(s.Trans)
	if n < 2 || len(s.Accept) != n || len(s.Depth) != n {
		return nil, fmt.Errorf("automaton: snapshot shape mismatch (%d/%d/%d states)",
			n, len(s.Accept), len(s.Depth))
	}
	if s.Depth[StateEpsilon] != 0 || s.Depth[StateDot] != 1 {
		return nil, fmt.Errorf("automaton: snapshot distinguished-state depths %d/%d, want 0/1",
			s.Depth[StateEpsilon], s.Depth[StateDot])
	}
	if s.NumKeywords < 0 || s.NumKeywords > n {
		return nil, fmt.Errorf("automaton: snapshot keyword count %d out of range", s.NumKeywords)
	}
	a := &Automaton{
		R:           R,
		trans:       make([]map[cfg.EdgeID]State, n),
		accept:      append([]bool(nil), s.Accept...),
		depth:       append([]int32(nil), s.Depth...),
		numKeywords: s.NumKeywords,
	}
	for q, ts := range s.Trans {
		m := make(map[cfg.EdgeID]State, len(ts))
		for _, t := range ts {
			if t.To < 2 || int(t.To) >= n {
				return nil, fmt.Errorf("automaton: snapshot transition target %d out of range", t.To)
			}
			if s.Depth[t.To] != s.Depth[q]+1 {
				return nil, fmt.Errorf("automaton: snapshot transition %d->%d breaks the trie depth invariant", q, t.To)
			}
			if _, dup := m[t.Edge]; dup {
				return nil, fmt.Errorf("automaton: snapshot duplicate transition on edge %d from state %d", t.Edge, q)
			}
			m[t.Edge] = t.To
		}
		a.trans[q] = m
	}
	return a, nil
}

// Dot renders the retrieval tree in Graphviz format; edges are labeled
// with the original graph's node names when g is non-nil.
func (a *Automaton) Dot(g *cfg.Graph) string {
	var b strings.Builder
	b.WriteString("digraph trie {\n  node [shape=circle];\n")
	for q := range a.trans {
		shape := ""
		if a.accept[q] {
			shape = ", shape=doublecircle"
		}
		fmt.Fprintf(&b, "  q%d [label=\"%s\"%s];\n", q, a.Name(State(q)), shape)
	}
	fmt.Fprintf(&b, "  q%d -> q%d [label=\"•\"];\n", StateEpsilon, StateDot)
	for q, m := range a.trans {
		edges := make([]cfg.EdgeID, 0, len(m))
		for e := range m {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(x, y int) bool { return edges[x] < edges[y] })
		for _, e := range edges {
			label := fmt.Sprintf("e%d", e)
			if g != nil {
				ed := g.Edge(e)
				label = fmt.Sprintf("(%s,%s)", nodeName(g, ed.From), nodeName(g, ed.To))
			}
			fmt.Fprintf(&b, "  q%d -> q%d [label=\"%s\"];\n", q, m[e], label)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func nodeName(g *cfg.Graph, n cfg.NodeID) string {
	nd := g.Node(n)
	if nd.Name != "" {
		return nd.Name
	}
	return fmt.Sprintf("n%d", n)
}
