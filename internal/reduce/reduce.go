// Package reduce implements §5 of Ammons & Larus (PLDI 1998): shrinking a
// hot path graph to retain only the duplicates whose data-flow solutions
// pay for themselves.
//
// The algorithm:
//
//  1. Weigh each HPG vertex by the dynamic executions of its non-local
//     constant instructions (profile frequency × constants found by the
//     qualified analysis but not by local analysis) and mark vertices hot,
//     in descending weight order, until a fraction CR of the total weight
//     is covered.
//  2. For each original vertex v, greedily partition its HPG duplicates
//     (v,q) into compatible sets: two vertices are compatible if neither
//     is hot, or if lowering both solutions to the meet of their lattice
//     values destroys no constant in a hot vertex. Vertices are considered
//     in descending weight order to keep hot vertices together.
//     Both steps read the solution only at each block's inputs, the
//     registers it reads before writing them (constprop.Block). Every
//     other register an instruction reads was written earlier in the
//     block, so instruction values — and hence weights and compatibility
//     — depend on the inputs alone, and the projected meets decide
//     exactly what whole-environment meets would.
//  3. Refine the partition with the standard DFA-minimization algorithm
//     (Hopcroft, via Gries) so that it becomes a congruence: every member
//     of a class must agree, per successor slot, on the class of its
//     successor. The quotient graph then introduces no new paths, so no
//     solution is lowered beyond the meets accepted in step 2.
//  4. Replace each class by a representative vertex, producing the
//     reduced hot path graph (rHPG), and carry the recording edges over
//     (well-defined: all members project to the same original edge).
//
// CR enters only step 1's hot marking, and only through k, the number of
// vertices taken from the front of the weight order. So the steps split
// at that point: Weigh computes the weights and their order once per HPG,
// HotPrefix turns a cutoff into k with a prefix scan, and Partition runs
// the rest of the algorithm for a given k. Two cutoffs with the same k
// yield the same reduced graph. Reduce chains the three.
package reduce

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/ir"
	"pathflow/internal/profile"
	"pathflow/internal/trace"
)

// Options configures reduction.
type Options struct {
	// CR is the benefit cutoff: the fraction of dynamic non-local
	// constants that the hot vertices must cover (the paper uses 0.95).
	CR float64
}

// Reduced is a reduced hot path graph.
type Reduced struct {
	// H is the HPG this graph was reduced from.
	H *trace.HPG
	// G is the quotient graph.
	G *cfg.Graph
	// Class maps each HPG node to its class index.
	Class []int
	// Members lists the HPG nodes of each class.
	Members [][]cfg.NodeID
	// Rep maps each class to its rHPG node.
	Rep []cfg.NodeID
	// OrigNode maps each rHPG node to the original CFG vertex.
	OrigNode []cfg.NodeID
	// OrigEdge maps each rHPG edge to the original CFG edge.
	OrigEdge []cfg.EdgeID
	// Recording is the rHPG's recording-edge set.
	Recording map[cfg.EdgeID]bool
	// Hot lists the HPG nodes selected as hot vertices.
	Hot []cfg.NodeID
	// Weights holds the per-HPG-node benefit weights used for selection.
	Weights []int64
}

// Reduce shrinks the HPG h, whose qualified constant-propagation result is
// sol and whose translated path profile is hpgProf: it weighs h, takes
// the hot prefix for opt.CR and partitions.
func Reduce(h *trace.HPG, sol *constprop.Result, hpgProf *bl.Profile, opt Options) (*Reduced, error) {
	w := Weigh(h, sol, hpgProf)
	return Partition(h, sol, w, HotPrefix(w, opt.CR))
}

// Weights is the CR-independent half of step 1: every HPG node's
// benefit weight and the nodes in descending weight order. A CR value
// selects a prefix of Order (HotPrefix), so one Weights serves every
// cutoff.
type Weights struct {
	// W is the benefit weight of each HPG node: its non-local constants
	// times its profiled frequency.
	W []int64
	// Order lists the HPG nodes by descending weight, ties by node ID.
	Order []cfg.NodeID
	// Total is the sum of W.
	Total int64
}

// NewWeights wraps per-node weights w, rebuilding the weight order.
func NewWeights(w []int64) *Weights {
	ws := &Weights{W: w, Order: make([]cfg.NodeID, len(w))}
	for i, x := range w {
		ws.Order[i] = cfg.NodeID(i)
		ws.Total += x
	}
	slices.SortFunc(ws.Order, func(a, b cfg.NodeID) int {
		if w[a] != w[b] {
			return cmp.Compare(w[b], w[a])
		}
		return cmp.Compare(a, b)
	})
	return ws
}

// Hot returns the first k nodes of the weight order (nil when k is 0),
// the hot vertices a cutoff with HotPrefix k selects.
func (w *Weights) Hot(k int) []cfg.NodeID {
	if k == 0 {
		return nil
	}
	return w.Order[:k:k]
}

// Weigh performs the weighing half of step 1 on the HPG h, whose
// qualified constant-propagation result is sol and whose translated path
// profile is hpgProf.
func Weigh(h *trace.HPG, sol *constprop.Result, hpgProf *bl.Profile) *Weights {
	g := h.G
	freq := profile.NodeFrequencies(hpgProf, g)
	bs := prepare(h, sol)
	var m constMask
	weights := make([]int64, g.NumNodes())
	for _, nd := range g.Nodes {
		b := bs.of(nd.ID)
		w := maskWords(len(b.Candidates))
		m = slices.Grow(m[:0], w)[:w]
		bs.nonLocal(b, bs.inputsAt(nd.ID), m)
		weights[nd.ID] = int64(m.count()) * freq[nd.ID]
	}
	return NewWeights(weights)
}

// HotPrefix returns k, the number of nodes at the front of w's order
// that become hot at cutoff cr: nodes are taken in descending weight
// order until a fraction cr of the total weight is covered, and a node
// of weight zero is never hot. k is non-decreasing in cr.
func HotPrefix(w *Weights, cr float64) int {
	goal := cr * float64(w.Total)
	var acc float64
	k := 0
	for _, n := range w.Order {
		if acc >= goal || w.W[n] == 0 {
			break
		}
		acc += float64(w.W[n])
		k++
	}
	return k
}

// Partition performs steps 2-4 on h with the first k nodes of w's order
// hot (k as HotPrefix computes it), returning the reduced graph.
func Partition(h *trace.HPG, sol *constprop.Result, w *Weights, k int) (*Reduced, error) {
	g := h.G
	if len(w.W) != g.NumNodes() || k < 0 || k > len(w.Order) {
		return nil, fmt.Errorf("reduce: %d weights and hot prefix %d for %d nodes", len(w.W), k, g.NumNodes())
	}
	bs := prepare(h, sol)
	hotList := w.Hot(k)

	// Step 1's hot vertices. masks[n] marks a hot n's non-local
	// constants, one bit per candidate of its block.
	hot := make([]bool, g.NumNodes())
	masks := make([]constMask, g.NumNodes())
	words := 0
	for _, n := range hotList {
		words += maskWords(len(bs.of(n).Candidates))
	}
	arena := make(constMask, words)
	for _, n := range hotList {
		b := bs.of(n)
		nw := maskWords(len(b.Candidates))
		hot[n] = true
		masks[n], arena = arena[:nw:nw], arena[nw:]
		bs.nonLocal(b, bs.inputsAt(n), masks[n])
	}

	// Step 2: greedy compatibility partition, per original vertex in
	// ascending order. A stable sort of the weight order by original
	// vertex groups the duplicates and keeps each group in descending
	// weight order.
	order := slices.Clone(w.Order)
	slices.SortStableFunc(order, func(a, b cfg.NodeID) int {
		return cmp.Compare(h.OrigNode[a], h.OrigNode[b])
	})
	class := make([]int, g.NumNodes())
	numClasses := 0
	// A compatibility set keeps the meet of its members' inputs and the
	// union of its hot members' non-local constants.
	type set struct {
		id      int
		meet    []constprop.Value
		hasHot  bool
		hotMask constMask
	}
	var (
		sets []set
		got  constMask
		meet = make([]constprop.Value, bs.maxInputs)
	)
	for rest := order; len(rest) > 0; {
		b := bs.of(rest[0])
		size := 1
		for size < len(rest) && h.OrigNode[rest[size]] == h.OrigNode[rest[0]] {
			size++
		}
		group := rest[:size]
		rest = rest[size:]
		nIn, nw := len(b.Inputs), maskWords(len(b.Candidates))
		got = slices.Grow(got[:0], nw)[:nw]
		sets = sets[:0]
		for _, n := range group {
			x := bs.inputsAt(n)
			placed := false
			for si := range sets {
				s := &sets[si]
				if !s.hasHot && !hot[n] {
					// Neither side hot: always compatible.
					meetInto(s.meet, s.meet, x)
					class[n] = s.id
					placed = true
					break
				}
				m := meet[:nIn]
				meetInto(m, s.meet, x)
				bs.nonLocal(b, m, got)
				if !got.contains(s.hotMask) || hot[n] && !got.contains(masks[n]) {
					continue
				}
				copy(s.meet, m)
				if hot[n] {
					s.hasHot = true
					s.hotMask.or(masks[n])
				}
				class[n] = s.id
				placed = true
				break
			}
			if !placed {
				s := set{id: numClasses, meet: slices.Clone(x), hasHot: hot[n], hotMask: make(constMask, nw)}
				if hot[n] {
					copy(s.hotMask, masks[n])
				}
				numClasses++
				sets = append(sets, s)
				class[n] = s.id
			}
		}
	}
	return quotient(h, w.W, hotList, class, numClasses)
}

// blocks holds what steps 1 and 2 evaluate with: each original
// vertex's prepared block and scratch shared by every evaluation.
type blocks struct {
	h         *trace.HPG
	sol       *constprop.Result
	byOrig    []*constprop.Block
	maxInputs int
	in, vals  []constprop.Value
}

// prepare builds the blocks of h's original vertices. All HPG
// duplicates of one original vertex share its instruction list, so each
// original vertex's block is prepared once.
func prepare(h *trace.HPG, sol *constprop.Result) *blocks {
	bs := &blocks{h: h, sol: sol, byOrig: make([]*constprop.Block, h.Fn.G.NumNodes())}
	maxInstrs := 0
	for _, nd := range h.G.Nodes {
		ov := h.OrigNode[nd.ID]
		if bs.byOrig[ov] != nil {
			continue
		}
		b := constprop.NewBlock(nd.Instrs)
		bs.byOrig[ov] = b
		bs.maxInputs = max(bs.maxInputs, len(b.Inputs))
		maxInstrs = max(maxInstrs, len(b.Instrs))
	}
	bs.in = make([]constprop.Value, 0, bs.maxInputs)
	bs.vals = make([]constprop.Value, maxInstrs)
	return bs
}

func (bs *blocks) of(n cfg.NodeID) *constprop.Block { return bs.byOrig[bs.h.OrigNode[n]] }

// inputsAt projects the solution at n onto its block's inputs, reading
// the solved rows cell by cell (unreached rows are ⊤). The result is
// scratch, valid until the next call.
func (bs *blocks) inputsAt(n cfg.NodeID) []constprop.Value {
	x := bs.in[:0]
	for _, r := range bs.of(n).Inputs {
		x = append(x, bs.sol.Value(n, r))
	}
	return x
}

// nonLocal evaluates b with its inputs holding x and sets in m the bits
// of the candidates (b.Candidates) that come out constant.
func (bs *blocks) nonLocal(b *constprop.Block, x []constprop.Value, m constMask) {
	b.Eval(x, bs.vals)
	clear(m)
	for k, i := range b.Candidates {
		if bs.vals[i].IsConst() {
			m.set(k)
		}
	}
}

// constMask is a bitset over the candidates of one block.
type constMask []uint64

func maskWords(n int) int { return (n + 63) / 64 }

func (m constMask) set(i int) { m[i/64] |= 1 << (i % 64) }

func (m constMask) count() int {
	c := 0
	for _, w := range m {
		c += bits.OnesCount64(w)
	}
	return c
}

func (m constMask) or(o constMask) {
	for i := range o {
		m[i] |= o[i]
	}
}

// contains reports whether m ⊇ o.
func (m constMask) contains(o constMask) bool {
	for i := range o {
		if o[i]&^m[i] != 0 {
			return false
		}
	}
	return true
}

// meetInto sets dst to the pointwise meet of a and b; dst may alias a.
func meetInto(dst, a, b []constprop.Value) {
	for i := range dst {
		dst[i] = a[i].Meet(b[i])
	}
}

// quotient performs steps 3 and 4 on the compatibility partition class
// (numClasses classes) of h: it refines the partition to a congruence
// and builds the reduced graph over the refined classes.
func quotient(h *trace.HPG, weights []int64, hotList []cfg.NodeID, class []int, numClasses int) (*Reduced, error) {
	class, _ = refine(h.G, class, numClasses)
	return Assemble(h, class, hotList, weights)
}

// Assemble performs step 4: it builds the reduced graph of h over the
// partition class, one rHPG node per class, and records hot and weights
// as the selection that produced it. class must number its classes
// densely in order of first member (the form step 3 produces, so no
// class is empty), every class must hold duplicates of one original
// vertex, and the partition must be a congruence. Any other vector is an
// error, so the disk codec rebuilds stored partitions through here too.
func Assemble(h *trace.HPG, class []int, hot []cfg.NodeID, weights []int64) (*Reduced, error) {
	g := h.G
	if len(class) != g.NumNodes() {
		return nil, fmt.Errorf("reduce: %d class entries for %d nodes", len(class), g.NumNodes())
	}
	numClasses := 0
	for n, c := range class {
		if c < 0 || c > numClasses {
			return nil, fmt.Errorf("reduce: node %d has class %d, want at most %d", n, c, numClasses)
		}
		if c == numClasses {
			numClasses++
		}
	}
	red := &Reduced{
		H:         h,
		G:         &cfg.Graph{Name: g.Name + "#reduced"},
		Class:     class,
		Members:   make([][]cfg.NodeID, numClasses),
		Rep:       make([]cfg.NodeID, numClasses),
		Recording: map[cfg.EdgeID]bool{},
		Hot:       hot,
		Weights:   weights,
	}
	for _, nd := range g.Nodes {
		red.Members[class[nd.ID]] = append(red.Members[class[nd.ID]], nd.ID)
	}
	for c, ms := range red.Members {
		leader := ms[0]
		ov := h.OrigNode[leader]
		for _, m := range ms[1:] {
			if h.OrigNode[m] != ov || len(g.Node(m).Out) != len(g.Node(leader).Out) {
				return nil, fmt.Errorf("reduce: class %d mixes duplicates of different vertices", c)
			}
		}
		origNd := h.Fn.G.Node(ov)
		name := g.Node(leader).Name
		if len(ms) > 1 {
			// The paper's Figure 8 drops state numbers from merged
			// vertices.
			name = origNd.Name
			if name == "" {
				name = fmt.Sprintf("n%d", ov)
			}
		}
		id := red.G.AddNode(name)
		nd := red.G.Node(id)
		nd.Instrs = append([]ir.Instr(nil), origNd.Instrs...)
		nd.Kind = origNd.Kind
		nd.Cond = origNd.Cond
		nd.Ret = origNd.Ret
		red.Rep[c] = id
		red.OrigNode = append(red.OrigNode, ov)
	}
	red.G.Entry = red.Rep[class[g.Entry]]
	red.G.Exit = red.Rep[class[g.Exit]]
	for c := range red.Members {
		leader := red.Members[c][0]
		from := red.Rep[c]
		for _, heid := range g.Node(leader).Out {
			he := g.Edge(heid)
			toClass := class[he.To]
			// Congruence: every member's successor in this slot must be
			// in toClass.
			for _, m := range red.Members[c][1:] {
				me := g.Edge(g.Node(m).Out[he.Slot])
				if class[me.To] != toClass {
					return nil, fmt.Errorf("reduce: partition is not a congruence at class %d slot %d", c, he.Slot)
				}
			}
			reid := red.G.AddEdge(from, red.Rep[toClass])
			red.OrigEdge = append(red.OrigEdge, h.OrigEdge[heid])
			if h.Recording[heid] {
				red.Recording[reid] = true
			}
		}
	}
	if err := red.G.Validate(h.Fn.NumVars()); err != nil {
		return nil, fmt.Errorf("reduce: produced invalid graph: %w", err)
	}
	return red, nil
}

// refine computes the coarsest refinement of the initial partition that is
// a congruence with respect to successor slots: for every class and every
// slot, all members' successors lie in one class. It is Hopcroft's
// partition-refinement algorithm ([Gri73]); splitters are (class, slot)
// pairs and the smaller half of every split is re-queued.
func refine(g *cfg.Graph, class []int, numClasses int) ([]int, int) {
	members := make([][]cfg.NodeID, numClasses)
	for i := range class {
		members[class[i]] = append(members[class[i]], cfg.NodeID(i))
	}
	const maxSlots = 2
	type splitter struct {
		class, slot int
	}
	queue := make([]splitter, 0, numClasses*maxSlots)
	queued := map[splitter]bool{}
	push := func(c, s int) {
		sp := splitter{c, s}
		if !queued[sp] {
			queued[sp] = true
			queue = append(queue, sp)
		}
	}
	for c := 0; c < numClasses; c++ {
		for s := 0; s < maxSlots; s++ {
			push(c, s)
		}
	}

	inX := make([]bool, len(class))
	for len(queue) > 0 {
		sp := queue[0]
		queue = queue[1:]
		queued[sp] = false

		// X = slot-sp.slot preimage of sp.class.
		var X []cfg.NodeID
		for _, m := range members[sp.class] {
			for _, eid := range g.Node(m).In {
				e := g.Edge(eid)
				if e.Slot == sp.slot && !inX[e.From] {
					inX[e.From] = true
					X = append(X, e.From)
				}
			}
		}
		if len(X) == 0 {
			continue
		}
		// Classes partially covered by X split.
		affected := map[int][]cfg.NodeID{}
		for _, n := range X {
			affected[class[n]] = append(affected[class[n]], n)
		}
		for c, hit := range affected {
			if len(hit) == len(members[c]) {
				continue // fully inside X: no split
			}
			// Split class c into hit and rest.
			rest := make([]cfg.NodeID, 0, len(members[c])-len(hit))
			for _, n := range members[c] {
				if !inX[n] {
					rest = append(rest, n)
				}
			}
			newID := numClasses
			numClasses++
			// The smaller half becomes the new class and is re-queued
			// for every slot; the larger keeps the old id. If the old
			// class is still queued for some slot, both halves must be
			// queued — pushing the new id unconditionally and keeping
			// the old id's entries achieves that.
			small, large := hit, rest
			if len(small) > len(large) {
				small, large = large, small
			}
			members[c] = large
			members = append(members, small)
			for _, n := range small {
				class[n] = newID
			}
			for s := 0; s < maxSlots; s++ {
				push(newID, s)
				push(c, s)
			}
		}
		for _, n := range X {
			inX[n] = false
		}
	}

	// Renumber classes densely in order of first member for determinism.
	renum := make([]int, numClasses)
	for i := range renum {
		renum[i] = -1
	}
	next := 0
	out := make([]int, len(class))
	for i := range class {
		if renum[class[i]] == -1 {
			renum[class[i]] = next
			next++
		}
		out[i] = renum[class[i]]
	}
	return out, next
}

// Growth returns the relative node-count increase of the rHPG over the
// original graph (Figure 11's "after minimization" series).
func (r *Reduced) Growth() float64 {
	o := r.H.Fn.G.NumNodes()
	return float64(r.G.NumNodes()-o) / float64(o)
}

// Func wraps the rHPG in a cfg.Func sharing the original register table.
func (r *Reduced) Func() *cfg.Func {
	return &cfg.Func{
		Name:     r.H.Fn.Name,
		Params:   r.H.Fn.Params,
		VarNames: r.H.Fn.VarNames,
		G:        r.G,
	}
}

// Overlay implementation, so profiles translate onto the rHPG.

// OverlayGraph returns the reduced graph.
func (r *Reduced) OverlayGraph() *cfg.Graph { return r.G }

// OverlayStart returns the rHPG node where paths starting at original
// vertex v begin: the class of (v, q•).
func (r *Reduced) OverlayStart(v cfg.NodeID) (cfg.NodeID, bool) {
	hn, ok := r.H.StartNode(v)
	if !ok {
		return cfg.NoNode, false
	}
	return r.Rep[r.Class[hn]], true
}

// OverlayRecording returns the rHPG recording edges.
func (r *Reduced) OverlayRecording() map[cfg.EdgeID]bool { return r.Recording }

// OverlayOrigEdge maps an rHPG edge to its original edge.
func (r *Reduced) OverlayOrigEdge(e cfg.EdgeID) cfg.EdgeID { return r.OrigEdge[e] }
