// Package feasible is the branch-correlation static analysis behind
// pathflow's second precision axis. Hot-path qualification (the
// Ammons-Larus pipeline) buys data-flow precision from *frequency* —
// duplicating hot paths so facts on them are not merged away. This
// package buys it from *feasibility*: it computes a sound set of CFG
// (or HPG) edges that no execution can take, and the clients analyze
// through the pruned view, excluding the merges those edges would have
// forced.
//
// Detect combines two kinds of evidence:
//
//   - Lattice evidence. Conditional (Wegman-Zadek) constant propagation
//     and the widening-free clamped interval analysis each mark the
//     branch legs their lattices decide as non-executable; any edge
//     neither analysis ever delivers along is infeasible.
//
//   - Syntactic branch correlation. A forward must-availability pass
//     over canonical branch predicates: each branch leg asserts its
//     condition's predicate (same-condition positively on the taken
//     leg, negated on the fall-through leg), assignments kill the
//     predicates mentioning the overwritten register, and merges keep
//     only the facts all executable in-edges agree on. A branch whose
//     predicate is already forced by the incoming facts has its
//     contradicted leg marked infeasible — the classic correlated
//     branch `if (c) ... if (c)` with c unmodified in between.
//
// The two feed each other (a pruned leg can decide a constant, which
// prunes another leg), so Detect iterates them to a bounded fixpoint.
//
// Soundness. The syntactic pass is a distributive gen/kill framework
// over predicate sets, so its MFP equals its MOP: a fact holds at a
// node only if it holds along every executable path into it, and a leg
// is pruned only when the branch outcome is implied on *all* such
// paths. The lattice evidence inherits the soundness of the underlying
// analyses. Both arguments are independent of the graph tier, so
// running Detect on the CFG and on the HPG keeps the oracle's cross-tier
// refinement guarantee: an HPG copy's incoming paths are a subset of
// its original vertex's, so its must-facts are a superset and every leg
// pruned on the CFG is pruned on its copies.
//
// The reduced HPG is not detected again: Project carries the HPG's mask
// over to it. Reduction refines its partition to a congruence (all
// members of a class have their slot-s successors in one class), so the
// rHPG is a quotient of the HPG and every execution's HPG lift maps,
// under reduce.Reduced.Class, onto its rHPG lift. An rHPG edge (class A,
// slot s) can thus only be taken if some HPG edge (x, s) with x in A is,
// and when the HPG mask marks all of them, none is. The projection is
// also at least as strong as Detect on the quotient: round by round,
// Detect's facts on the rHPG, pulled back through Class, satisfy the
// HPG's constraints, so Detect on the HPG marks every member edge of an
// edge Detect on the rHPG would mark (TestProjectedMaskContainsDetected
// keeps Detect on the rHPG as that reference).
// The empirical backstop is oracle.CheckTraces: no edge observed in a
// recorded training or evaluation run may ever be in the mask.
package feasible

import (
	"cmp"
	"slices"

	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/reduce"
)

// Edges is the feasibility artifact for one graph: the sound
// infeasible-edge set the clients analyze through. It is immutable
// after Detect and safe to share across goroutines.
type Edges struct {
	// Infeasible is indexed by cfg.EdgeID; true marks an edge no
	// execution can take.
	Infeasible []bool
	// Count is the number of marked edges.
	Count int
}

// Has reports whether edge e is marked infeasible.
func (ed *Edges) Has(e cfg.EdgeID) bool {
	return ed != nil && int(e) < len(ed.Infeasible) && ed.Infeasible[e]
}

// Mask returns the per-EdgeID mask to thread into the masked analyses,
// or nil when no edge is infeasible (so downstream cache identities and
// solver paths are untouched by an empty result).
func (ed *Edges) Mask() []bool {
	if ed == nil || ed.Count == 0 {
		return nil
	}
	return ed.Infeasible
}

// maxRounds bounds the evidence-folding iterations: each round re-runs
// the lattice analyses under the grown mask and then the syntactic
// fixpoint. Soundness never depends on reaching the global fixpoint —
// later rounds only add edges already provably infeasible.
const maxRounds = 3

// Detect computes the infeasible-edge set of g. It is deterministic
// (same graph, same mask) and kernel-independent, so the result can be
// cached and shared across solver backends.
//
// The lattice evidence comes from two packed kernel solvers built once
// per call. Both hold the mask Detect grows in place, so each fold just
// re-runs them and reads their executable edges; no fact is boxed. As
// the fold reads nothing else, each solve stops as soon as every edge
// the mask leaves open is executable: an edge never stops being
// executable during the solve, so the fixpoint would mark the same
// ones. The syntactic pass is a third solver over the same mask, on the
// bitset kernel; it always runs to its fixpoint, because its rows are
// what it reads.
func Detect(g *cfg.Graph, numVars int) *Edges {
	mask := make([]bool, len(g.Edges))
	info, anyGens := buildNodeInfo(g, numVars)
	wz := constprop.PackedSolverMasked(g, numVars, true, mask)
	iv := intervals.ClampedSolver(g, numVars, intervals.Thresholds(g), true, mask)

	fold := func() bool {
		open := 0
		for _, m := range mask {
			if !m {
				open++
			}
		}
		wz.RunUntilExecutable(open)
		iv.RunUntilExecutable(open)
		changed := false
		for e := range mask {
			if !mask[e] && (!wz.EdgeExecutable[e] || !iv.EdgeExecutable[e]) {
				mask[e] = true
				changed = true
			}
		}
		return changed
	}

	fold()
	// With no branch asserting a predicate, the syntactic pass can
	// prune nothing: skip it.
	if !anyGens {
		return FromMask(mask)
	}
	syn := newSyntactic(g, info, mask)
	for round := 0; round < maxRounds; round++ {
		if !syn.fixpoint() {
			break
		}
		if !fold() {
			break
		}
	}

	return FromMask(mask)
}

// FromMask wraps a per-EdgeID mask (for example one decoded from the
// persistent cache tier) in an Edges artifact, recounting the marks.
func FromMask(mask []bool) *Edges {
	ed := &Edges{Infeasible: mask}
	for _, m := range mask {
		if m {
			ed.Count++
		}
	}
	return ed
}

// Project returns the infeasible-edge set of red's quotient graph
// implied by hpg, the mask of the HPG red was reduced from: the rHPG
// edge in slot s of class A's representative is infeasible exactly when
// the slot-s out-edge of every member of A is infeasible in hpg (see the
// package comment for why that is sound). A nil or empty hpg projects
// to an empty set, whose Mask is nil.
func Project(red *reduce.Reduced, hpg *Edges) *Edges {
	mask := make([]bool, len(red.G.Edges))
	if hpg.Mask() == nil {
		return FromMask(mask)
	}
	hg := red.H.G
	for c, members := range red.Members {
		for s, e := range red.G.Node(red.Rep[c]).Out {
			all := true
			for _, m := range members {
				if !hpg.Infeasible[hg.Node(m).Out[s]] {
					all = false
					break
				}
			}
			mask[e] = all
		}
	}
	return FromMask(mask)
}

// --- Canonical branch predicates ------------------------------------------

// predKey is a canonical branch predicate: a comparison in Lt/Eq normal
// form over register or literal operands, or the truthiness of one
// register. Polarity is carried by the fact's value, not the key, so a
// condition and its negation share a key.
type predKey struct {
	base   uint8 // one of predLt, predEq, predTruthy
	ak, bk uint8 // operand kinds (opReg / opConst); bk unused for predTruthy
	a, b   int64 // register IDs or literal values
}

const (
	predLt = uint8(iota + 1)
	predEq
	predTruthy

	opReg   = uint8(0)
	opConst = uint8(1)
)

// operand is one side of a comparison during canonicalization.
type operand struct {
	isConst bool
	v       int64 // register ID or literal value
}

func (o operand) kind() uint8 {
	if o.isConst {
		return opConst
	}
	return opReg
}

// less orders operands deterministically for symmetric predicates.
func (o operand) less(p operand) bool {
	if o.isConst != p.isConst {
		return !o.isConst // registers before constants
	}
	return o.v < p.v
}

// canon normalizes `a op b` into (key, pos) with the invariant: the
// comparison evaluates non-zero iff the key's truth equals pos.
// Two-literal comparisons are rejected (the lattice evidence folds
// those).
func canon(op ir.Op, a, b operand) (predKey, bool, bool) {
	if a.isConst && b.isConst {
		return predKey{}, false, false
	}
	switch op {
	case ir.Lt:
		return predKey{base: predLt, ak: a.kind(), bk: b.kind(), a: a.v, b: b.v}, true, true
	case ir.Ge:
		return predKey{base: predLt, ak: a.kind(), bk: b.kind(), a: a.v, b: b.v}, false, true
	case ir.Gt:
		return predKey{base: predLt, ak: b.kind(), bk: a.kind(), a: b.v, b: a.v}, true, true
	case ir.Le:
		return predKey{base: predLt, ak: b.kind(), bk: a.kind(), a: b.v, b: a.v}, false, true
	case ir.Eq, ir.Ne:
		if b.less(a) {
			a, b = b, a
		}
		return predKey{base: predEq, ak: a.kind(), bk: b.kind(), a: a.v, b: b.v}, op == ir.Eq, true
	}
	return predKey{}, false, false
}

// genFact is one predicate a branch asserts: the taken leg asserts
// key = pos, the fall-through leg asserts key = !pos. All gen facts of
// one branch restate the same condition, so a contradiction on any of
// them kills the leg.
type genFact struct {
	key predKey
	pos bool
}

// nodeInfo is the static (fact-independent) summary of one node: the
// registers its block writes and the predicates its branch asserts.
type nodeInfo struct {
	kill []int64   // register IDs written by the block
	gens []genFact // branch predicates (empty for non-branches)
}

// holderCap bounds how many registers per operand value participate in
// predicate generation — the same value rarely survives in more than
// one or two registers, and capping keeps the fact sets small.
const holderCap = 2

// buildNodeInfo runs the block-local value-numbering pass on every node
// (the same token discipline as intervals.refineBranch): entry
// registers and interned literals are tokens, Copy propagates, Not
// negates a comparison, and every other write mints a fresh opaque
// token. A branch then asserts its condition's defining comparison,
// with operands resolved to the registers still holding their values at
// block exit — killed incoming facts never alias them, so a surviving
// fact and a generated fact with the same key constrain the same
// runtime value. It also reports whether any branch asserts a predicate
// at all: when none does, the syntactic pass can prune nothing.
//
// The pass costs O(instructions), not O(nodes × registers): a register
// the block has not written holds its entry token, so only the written
// registers carry a token (stamped with the node that wrote it) and
// only they are scanned for holders. Fresh tokens index a per-node
// definition list, and every node's kill list is a window of one shared
// array.
func buildNodeInfo(g *cfg.Graph, numVars int) ([]nodeInfo, bool) {
	// tokDef is what a fresh token stands for: a literal, a comparison
	// of two tokens, or (neither) an opaque value.
	type tokDef struct {
		isConst bool
		isCmp   bool
		op      ir.Op
		ta, tb  int32
		k       int64
	}
	type constDef struct{ node, tok int32 }
	out := make([]nodeInfo, len(g.Nodes))
	kills := make([]int64, 0, g.NumInstrs())
	anyGens := false
	nv := int32(numVars)
	// tok[r] is register r's token where at[r] is the current node + 1;
	// elsewhere r still holds its entry token r.
	tok := make([]int32, numVars)
	at := make([]int32, numVars)
	var stamp int32
	get := func(r ir.Var) int32 {
		if at[r] == stamp {
			return tok[r]
		}
		return int32(r)
	}
	var defs []tokDef // defs[t-numVars] defines fresh token t
	constTok := map[int64]constDef{}
	var written []int64
	var ops []operand
	// resolve maps a value token to operands: its literal, or the (at
	// most holderCap lowest-numbered) registers still holding it at
	// block exit. The result is scratch, valid until the next call.
	resolve := func(t int32) []operand {
		ops = ops[:0]
		if t >= nv && defs[t-nv].isConst {
			return append(ops, operand{isConst: true, v: defs[t-nv].k})
		}
		if t < nv && at[t] != stamp {
			ops = append(ops, operand{v: int64(t)})
		}
		for _, r := range written {
			if o := (operand{v: r}); tok[r] == t && !slices.Contains(ops, o) {
				ops = append(ops, o)
			}
		}
		slices.SortFunc(ops, func(a, b operand) int { return cmp.Compare(a.v, b.v) })
		return ops[:min(len(ops), holderCap)]
	}
	fresh := func(d tokDef) int32 {
		defs = append(defs, d)
		return nv + int32(len(defs)-1)
	}
	for _, nd := range g.Nodes {
		ni := &out[nd.ID]
		stamp = int32(nd.ID) + 1
		defs = defs[:0]
		k0 := len(kills)
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if !in.HasDst() {
				continue
			}
			kills = append(kills, int64(in.Dst))
			var t int32
			switch in.Op {
			case ir.Const:
				if cd, ok := constTok[in.K]; ok && cd.node == stamp {
					t = cd.tok
				} else {
					t = fresh(tokDef{isConst: true, k: in.K})
					constTok[in.K] = constDef{node: stamp, tok: t}
				}
			case ir.Copy:
				t = get(in.A)
			case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
				t = fresh(tokDef{isCmp: true, op: in.Op, ta: get(in.A), tb: get(in.B)})
			case ir.Not:
				if a := get(in.A); a >= nv && defs[a-nv].isCmp {
					cd := defs[a-nv]
					t = fresh(tokDef{isCmp: true, op: negateCmp(cd.op), ta: cd.ta, tb: cd.tb})
				} else {
					t = fresh(tokDef{})
				}
			default:
				t = fresh(tokDef{})
			}
			tok[in.Dst] = t
			at[in.Dst] = stamp
		}
		ni.kill = kills[k0:len(kills):len(kills)]
		written = ni.kill
		if nd.Kind != cfg.TermBranch || !nd.Cond.Valid() {
			continue
		}
		ct := get(nd.Cond)
		if ct >= nv && defs[ct-nv].isCmp {
			cd := defs[ct-nv]
			// resolve's scratch holds one list at a time: copy the
			// left operands before resolving the right ones.
			var as [holderCap]operand
			na := copy(as[:], resolve(cd.ta))
			for _, a := range as[:na] {
				for _, b := range resolve(cd.tb) {
					if key, pos, ok := canon(cd.op, a, b); ok {
						ni.gens = append(ni.gens, genFact{key: key, pos: pos})
					}
				}
			}
		}
		// The condition register itself (and any alias) is non-zero on
		// the taken leg and zero on the fall-through leg.
		for _, o := range resolve(ct) {
			if !o.isConst {
				ni.gens = append(ni.gens, genFact{key: predKey{base: predTruthy, ak: opReg, a: o.v}, pos: true})
			}
		}
		anyGens = anyGens || len(ni.gens) > 0
	}
	return out, anyGens
}

func negateCmp(op ir.Op) ir.Op {
	switch op {
	case ir.Eq:
		return ir.Ne
	case ir.Ne:
		return ir.Eq
	case ir.Lt:
		return ir.Ge
	case ir.Ge:
		return ir.Lt
	case ir.Le:
		return ir.Gt
	case ir.Gt:
		return ir.Le
	}
	return op
}

// --- The must-availability fixpoint ---------------------------------------

// syntactic is the predicate must-availability pass of one graph on the
// packed bitset kernel, built once per Detect call over the mask Detect
// grows in place. Every gen key of the graph is interned to a dense ID k
// that owns two bits of a row: 2k (the key is known true) and 2k+1
// (known false). An unknown key has neither bit and no row ever gets
// both, so Bits.And keeps exactly the entries all in-edges agree on:
// the meet of the map reference in syntactic_ref_test.go. A block clears
// the keys that mention a register it writes (its kill mask); a branch
// then clears both bits of every key it asserts and sets, per leg, the
// bit of the value that leg asserts, so its later gen facts win as in
// the map pass.
type syntactic struct {
	g      *cfg.Graph
	mask   []bool
	bits   *kernel.Bits // the solver's rows
	masks  *kernel.Bits // per-node kill and leg rows, indexed by kill and legs
	kill   []int32      // per node: its kill mask's row, or -1 when it kills no key
	legs   []int32      // per branch asserting keys: its clear row (kill plus the keys), then the taken and fall-through set rows; else -1
	checks []check
	solver *kernel.Solver
}

// check is one contradiction test of a branch's unkilled gen key: bit
// set at the branch means the condition is non-zero there (the
// fall-through leg legs[1] is dead), bit^1 set that it is zero (the
// taken leg legs[0] is dead).
type check struct {
	n    cfg.NodeID
	bit  int
	legs [2]cfg.EdgeID
}

// newSyntactic interns g's gen keys, builds the kill and leg masks and
// the contradiction checks from info, and a solver over mask.
func newSyntactic(g *cfg.Graph, info []nodeInfo, mask []bool) *syntactic {
	keys := kernel.NewInterner[predKey]()
	for i := range info {
		for _, gf := range info[i].gens {
			keys.Intern(gf.key)
		}
	}
	// byReg[r] lists the keys mentioning register r: a write to r kills
	// them. Registers no key mentions have no entry.
	byReg := map[int64][]int32{}
	for k := 0; k < keys.Len(); k++ {
		key := keys.Key(k)
		if key.ak == opReg {
			byReg[key.a] = append(byReg[key.a], int32(k))
		}
		if key.base != predTruthy && key.bk == opReg {
			byReg[key.b] = append(byReg[key.b], int32(k))
		}
	}
	n := len(info)
	sy := &syntactic{
		g:     g,
		mask:  mask,
		bits:  kernel.NewBits(2 * keys.Len()),
		masks: kernel.NewBits(2 * keys.Len()),
		kill:  make([]int32, n),
		legs:  make([]int32, n),
	}
	rows := 0
	for i := range info {
		sy.kill[i], sy.legs[i] = -1, -1
		for _, r := range info[i].kill {
			if len(byReg[r]) > 0 {
				sy.kill[i] = int32(rows)
				rows++
				break
			}
		}
		if len(info[i].gens) > 0 {
			sy.legs[i] = int32(rows)
			rows += 3
		}
	}
	sy.masks.Grow(rows)
	for i := range info {
		ni := &info[i]
		if sy.kill[i] >= 0 {
			for _, r := range ni.kill {
				for _, k := range byReg[r] {
					sy.masks.Set(int(sy.kill[i]), 2*int(k))
					sy.masks.Set(int(sy.kill[i]), 2*int(k)+1)
				}
			}
		}
		l := int(sy.legs[i])
		if l < 0 {
			continue
		}
		if sy.kill[i] >= 0 {
			sy.masks.Copy(l, int(sy.kill[i]))
		}
		nd := g.Node(cfg.NodeID(i))
		for _, gf := range ni.gens {
			k := keys.Lookup(gf.key)
			if len(nd.Out) == 2 && !sy.masks.Has(l, 2*k) {
				bit := 2 * k
				if !gf.pos {
					bit++
				}
				sy.checks = append(sy.checks, check{n: nd.ID, bit: bit, legs: [2]cfg.EdgeID{nd.Out[0], nd.Out[1]}})
			}
		}
		for _, gf := range ni.gens {
			// The taken leg asserts key = pos, the fall-through leg
			// key = !pos.
			k := keys.Lookup(gf.key)
			taken, fall := 2*k, 2*k+1
			if !gf.pos {
				taken, fall = fall, taken
			}
			sy.masks.Set(l, taken)
			sy.masks.Set(l, fall)
			sy.masks.Unset(l+1, fall)
			sy.masks.Set(l+1, taken)
			sy.masks.Unset(l+2, taken)
			sy.masks.Set(l+2, fall)
		}
	}
	sy.solver = kernel.NewSolver(g, sy)
	return sy
}

func (sy *syntactic) Direction() dataflow.Direction { return dataflow.Forward }
func (sy *syntactic) Grow(rows int)                 { sy.bits.Grow(rows) }
func (sy *syntactic) Boundary(dst int)              { sy.bits.Clear(dst) }
func (sy *syntactic) Copy(dst, src int)             { sy.bits.Copy(dst, src) }
func (sy *syntactic) Meet(dst, src int) bool        { return sy.bits.And(dst, src) }
func (sy *syntactic) Equal(a, b int) bool           { return sy.bits.Equal(a, b) }

// Transfer kills, then (at a branch asserting keys) gens each leg's
// facts: scratch row 0 carries the taken leg's facts, or the only
// outgoing facts of any other node, and scratch row 1 the fall-through
// leg's. Masked edges are withheld.
func (sy *syntactic) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	src, out := sy.bits.Row(in), sy.bits.Row(scratch)
	if l := sy.legs[n]; l >= 0 {
		clr, set0, set1 := sy.masks.Row(int(l)), sy.masks.Row(int(l)+1), sy.masks.Row(int(l)+2)
		fall := sy.bits.Row(scratch + 1)
		for i, w := range src {
			w &^= clr[i]
			out[i] = w | set0[i]
			fall[i] = w | set1[i]
		}
	} else if k := sy.kill[n]; k >= 0 {
		kill := sy.masks.Row(int(k))
		for i, w := range src {
			out[i] = w &^ kill[i]
		}
	} else {
		copy(out, src)
	}
	legs := sy.legs[n] >= 0
	for i, eid := range sy.g.Node(n).Out {
		if sy.mask[eid] {
			continue
		}
		if legs && i > 0 {
			slots[i] = 1
		} else {
			slots[i] = 0
		}
	}
}

// fixpoint runs the must-availability pass under the current mask,
// marks every contradicted branch leg, and repeats until no new edge
// appears. It reports whether the mask grew. Contradictions are only
// ever concluded from fully converged fact sets: during the solve facts
// shrink toward the fixpoint, so intermediate (over-large) sets never
// prune anything.
func (sy *syntactic) fixpoint() bool {
	grew := false
	for {
		sy.solver.Run()
		added := false
		for _, c := range sy.checks {
			if !sy.solver.Reached[c.n] {
				continue
			}
			// The incoming facts force the condition: non-zero kills
			// the fall-through leg, zero the taken leg.
			var dead cfg.EdgeID
			switch {
			case sy.bits.Has(int(c.n), c.bit):
				dead = c.legs[1]
			case sy.bits.Has(int(c.n), c.bit^1):
				dead = c.legs[0]
			default:
				continue
			}
			if !sy.mask[dead] {
				sy.mask[dead] = true
				added = true
			}
		}
		if !added {
			return grew
		}
		grew = true
	}
}
