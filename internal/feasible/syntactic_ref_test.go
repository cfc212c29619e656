package feasible

import "pathflow/internal/cfg"

// This file keeps the syntactic correlation pass's original map-based
// solver as the test reference for the packed one (syntactic in
// feasible.go): a FIFO worklist over per-node predicate maps, with the
// kills read straight off each node's written registers. The pass is a
// distributive bit-vector framework, so its fixpoint does not depend on
// worklist order and both solvers must grow identical masks
// (TestSyntacticMatchesReference).

// mentions reports whether the predicate constrains register r, i.e.
// whether a write to r invalidates it.
func (k predKey) mentions(r int64) bool {
	if k.ak == opReg && k.a == r {
		return true
	}
	return k.base != predTruthy && k.bk == opReg && k.b == r
}

func (ni *nodeInfo) kills(k predKey) bool {
	for _, r := range ni.kill {
		if k.mentions(r) {
			return true
		}
	}
	return false
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
