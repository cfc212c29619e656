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
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
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
// re-runs them and reads their executable edges; no fact is boxed.
func Detect(g *cfg.Graph, numVars int) *Edges {
	mask := make([]bool, len(g.Edges))
	info, anyGens := buildNodeInfo(g, numVars)
	wz := constprop.PackedSolverMasked(g, numVars, true, mask)
	iv := intervals.ClampedSolver(g, numVars, intervals.Thresholds(g), true, mask)

	fold := func() bool {
		wz.Run()
		iv.Run()
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
	for round := 0; anyGens && round < maxRounds; round++ {
		if !syntacticFixpoint(g, info, mask) {
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

// mentions reports whether the predicate constrains register r, i.e.
// whether a write to r invalidates it.
func (k predKey) mentions(r int64) bool {
	if k.ak == opReg && k.a == r {
		return true
	}
	return k.base != predTruthy && k.bk == opReg && k.b == r
}

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

func (ni *nodeInfo) kills(k predKey) bool {
	for _, r := range ni.kill {
		if k.mentions(r) {
			return true
		}
	}
	return false
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
// runtime value. The pass's maps are cleared and reused from node to
// node, and every node's kill list is a window of one shared array. It
// also reports whether any branch asserts a predicate at all: when none
// does, the syntactic pass can prune nothing.
func buildNodeInfo(g *cfg.Graph, numVars int) ([]nodeInfo, bool) {
	type cmpDef struct {
		op     ir.Op
		ta, tb int32
	}
	out := make([]nodeInfo, len(g.Nodes))
	kills := make([]int64, 0, g.NumInstrs())
	anyGens := false
	tok := make([]int32, numVars)
	cmps := map[int32]cmpDef{}
	consts := map[int32]int64{}
	constTok := map[int64]int32{}
	var ops []operand
	// resolve maps a value token to operands: its literal, or the
	// registers still holding it at block exit. The result is scratch,
	// valid until the next call.
	resolve := func(t int32) []operand {
		ops = ops[:0]
		if k, ok := consts[t]; ok {
			return append(ops, operand{isConst: true, v: k})
		}
		for r := range tok {
			if tok[r] == t {
				ops = append(ops, operand{v: int64(r)})
				if len(ops) == holderCap {
					break
				}
			}
		}
		return ops
	}
	for _, nd := range g.Nodes {
		ni := &out[nd.ID]
		for i := range tok {
			tok[i] = int32(i)
		}
		next := int32(numVars)
		clear(cmps)
		clear(consts)
		clear(constTok)
		fresh := func() int32 { t := next; next++; return t }
		k0 := len(kills)
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if !in.HasDst() {
				continue
			}
			kills = append(kills, int64(in.Dst))
			switch in.Op {
			case ir.Const:
				t, ok := constTok[in.K]
				if !ok {
					t = fresh()
					constTok[in.K] = t
					consts[t] = in.K
				}
				tok[in.Dst] = t
			case ir.Copy:
				tok[in.Dst] = tok[in.A]
			case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
				t := fresh()
				cmps[t] = cmpDef{op: in.Op, ta: tok[in.A], tb: tok[in.B]}
				tok[in.Dst] = t
			case ir.Not:
				if cd, ok := cmps[tok[in.A]]; ok {
					t := fresh()
					cmps[t] = cmpDef{op: negateCmp(cd.op), ta: cd.ta, tb: cd.tb}
					tok[in.Dst] = t
				} else {
					tok[in.Dst] = fresh()
				}
			default:
				tok[in.Dst] = fresh()
			}
		}
		ni.kill = kills[k0:len(kills):len(kills)]
		if nd.Kind != cfg.TermBranch || !nd.Cond.Valid() {
			continue
		}
		ct := tok[nd.Cond]
		if cd, ok := cmps[ct]; ok {
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

// facts is the per-node predicate environment: key → forced value.
// Absent keys are unknown. The meet is intersection (agreeing entries
// survive), so a fact at a node holds on every executable path into it.
type facts map[predKey]bool

func cloneFacts(f facts) facts {
	out := make(facts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// intersectInto removes from dst every entry src disagrees with or
// lacks, reporting whether dst shrank.
func intersectInto(dst, src facts) bool {
	changed := false
	for k, v := range dst {
		if sv, ok := src[k]; !ok || sv != v {
			delete(dst, k)
			changed = true
		}
	}
	return changed
}

// syntacticFixpoint runs the predicate must-availability pass under the
// current mask, marks every contradicted branch leg, and repeats until
// no new edge appears. It reports whether the mask grew. Contradictions
// are only ever concluded from fully converged fact sets: during the
// iteration facts shrink toward the fixpoint, so intermediate
// (over-large) sets never prune anything.
func syntacticFixpoint(g *cfg.Graph, info []nodeInfo, mask []bool) bool {
	grew := false
	for {
		in := solveMust(g, info, mask)
		added := false
		for _, nd := range g.Nodes {
			if nd.Kind != cfg.TermBranch || in[nd.ID] == nil || len(nd.Out) != 2 {
				continue
			}
			ni := &info[nd.ID]
			if len(ni.gens) == 0 {
				continue
			}
			base := in[nd.ID]
			for _, gf := range ni.gens {
				if ni.kills(gf.key) {
					continue
				}
				v, ok := base[gf.key]
				if !ok {
					continue
				}
				// The incoming facts force the condition: v == gf.pos
				// means it is non-zero (the fall leg is dead), v !=
				// gf.pos means it is zero (the taken leg is dead).
				dead := nd.Out[0]
				if v == gf.pos {
					dead = nd.Out[1]
				}
				if !mask[dead] {
					mask[dead] = true
					added = true
					grew = true
				}
			}
		}
		if !added {
			return grew
		}
	}
}

// solveMust computes the per-node incoming predicate facts under mask:
// a forward worklist solve where each block filters killed facts, each
// branch leg adds its assertions, and merges intersect. Unreached nodes
// stay nil. Generated facts are justified by branch semantics alone, so
// on a key collision the generated value wins — it is correct even
// while the incoming set is still shrinking toward the fixpoint.
func solveMust(g *cfg.Graph, info []nodeInfo, mask []bool) []facts {
	in := make([]facts, len(g.Nodes))
	in[g.Entry] = facts{}
	work := []cfg.NodeID{g.Entry}
	queued := make([]bool, len(g.Nodes))
	queued[g.Entry] = true
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n] = false
		nd := g.Node(n)
		ni := &info[n]
		base := make(facts, len(in[n]))
		for k, v := range in[n] {
			if !ni.kills(k) {
				base[k] = v
			}
		}
		for slot, eid := range nd.Out {
			if mask[eid] {
				continue
			}
			out := base
			if len(ni.gens) > 0 && nd.Kind == cfg.TermBranch {
				out = cloneFacts(base)
				for _, gf := range ni.gens {
					if slot == 0 {
						out[gf.key] = gf.pos
					} else {
						out[gf.key] = !gf.pos
					}
				}
			}
			t := g.Edges[eid].To
			if in[t] == nil {
				in[t] = cloneFacts(out)
			} else if !intersectInto(in[t], out) {
				continue
			}
			if !queued[t] {
				queued[t] = true
				work = append(work, t)
			}
		}
	}
	return in
}
