// Package liveness implements live-variable analysis as a backward
// client of the generic data-flow framework — the first non-forward
// problem in the repo, demonstrating that the hot-path qualification
// machinery is direction-agnostic.
//
// A register is live at a program point if some executable path from
// that point reads it before writing it. The analysis is a classic
// bit-vector problem (meet = union over successors, transfer =
// uses ∪ (out ∖ defs)), so on the raw CFG every join is as conservative
// as the control flow allows. Precision on the hot path graph comes from
// *conditioning*: when a Guide solution (typically Wegman-Zadek constant
// propagation over the same graph) proves edges non-executable or nodes
// unreachable, liveness only propagates along the remaining executable
// edges. Because the HPG lets constant propagation decide strictly more
// branches than the CFG (paper §5), the guided live sets on the HPG are
// pointwise subsets of the CFG's — stores that look live at a CFG join
// become provably dead on the hot path, which `opt` then deletes.
package liveness

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// Set is a bit set over a function's registers. Sets are facts: treat
// them as immutable once handed to the solver.
type Set []uint64

// NewSet returns an empty set sized for numVars registers.
func NewSet(numVars int) Set { return make(Set, (numVars+63)/64) }

// Clone copies the set.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Has reports whether register v is in the set.
func (s Set) Has(v ir.Var) bool {
	if !v.Valid() {
		return false
	}
	return s[v/64]&(1<<(uint(v)%64)) != 0
}

// Add inserts register v (in place).
func (s Set) Add(v ir.Var) {
	if v.Valid() {
		s[v/64] |= 1 << (uint(v) % 64)
	}
}

// Remove deletes register v (in place).
func (s Set) Remove(v ir.Var) {
	if v.Valid() {
		s[v/64] &^= 1 << (uint(v) % 64)
	}
}

// Union returns a fresh set holding s ∪ o.
func (s Set) Union(o Set) Set {
	out := s.Clone()
	for i := range o {
		out[i] |= o[i]
	}
	return out
}

// Equal reports whether the two sets hold the same registers.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Count returns the number of registers in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// SubsetOf reports whether every register of s is also in o.
func (s Set) SubsetOf(o Set) bool {
	for i := range s {
		if s[i]&^o[i] != 0 {
			return false
		}
	}
	return true
}

// Problem is the live-variable data-flow problem over one graph.
type Problem struct {
	NumVars int
	// Guide optionally conditions the analysis on a prior forward
	// solution over the *same* graph (node reachability and edge
	// executability, e.g. from conditional constant propagation): facts
	// flow only along edges the guide found executable. nil analyzes
	// all control flow.
	Guide *dataflow.Solution
}

var (
	_ dataflow.Problem     = (*Problem)(nil)
	_ dataflow.Directional = (*Problem)(nil)
)

// Direction declares the problem backward.
func (p *Problem) Direction() dataflow.Direction { return dataflow.Backward }

// Entry returns the fact at the function's exit: nothing is live after
// the function returns (the returned register is consumed by the return
// node itself).
func (p *Problem) Entry() dataflow.Fact { return NewSet(p.NumVars) }

// Meet unions two live sets (may-analysis).
func (p *Problem) Meet(a, b dataflow.Fact) dataflow.Fact {
	return a.(Set).Union(b.(Set))
}

// Equal compares two live sets.
func (p *Problem) Equal(a, b dataflow.Fact) bool {
	return a.(Set).Equal(b.(Set))
}

// Transfer computes the block's live-in from its live-out and delivers
// it to the executable in-edges (one slot per in-edge, nil = edge not
// executable under the guide).
func (p *Problem) Transfer(g *cfg.Graph, n cfg.NodeID, in dataflow.Fact, out []dataflow.Fact) {
	if p.Guide != nil && !p.Guide.Reached[n] {
		return // node is dead code under the guide: propagate nothing
	}
	liveIn := BlockLiveIn(g, n, in.(Set))
	nd := g.Node(n)
	for i, eid := range nd.In {
		if p.Guide != nil && !p.Guide.EdgeExecutable[eid] {
			continue
		}
		out[i] = liveIn
	}
}

// BlockLiveIn computes the live set at node n's entry from the live set
// out at its exit.
func BlockLiveIn(g *cfg.Graph, n cfg.NodeID, out Set) Set {
	live := out.Clone()
	walkBlock(g.Node(n), live, nil)
	return live
}

// walkBlock runs nd's block backward over live, in place: terminator
// uses first, then the instructions in reverse (kill the destination,
// then gen the uses, so an instruction reading its own destination
// keeps it live above). dead, when non-nil, flags each pure
// instruction whose destination is not live just after it.
func walkBlock(nd *cfg.Node, live Set, dead []bool) {
	switch nd.Kind {
	case cfg.TermBranch:
		live.Add(nd.Cond)
	case cfg.TermReturn:
		live.Add(nd.Ret)
	}
	var uses []ir.Var
	for i := len(nd.Instrs) - 1; i >= 0; i-- {
		in := &nd.Instrs[i]
		if dead != nil && in.Op.IsPure() && in.HasDst() && !live.Has(in.Dst) {
			dead[i] = true
		}
		if in.HasDst() {
			live.Remove(in.Dst)
		}
		uses = in.Uses(uses[:0])
		for _, u := range uses {
			live.Add(u)
		}
	}
}

// Result is a solved liveness problem over G: row n of Rows is the live
// set at node n's exit, and Sol carries the rest of the solution but
// never boxed facts (Sol.In is nil; Boxed boxes them on demand).
type Result struct {
	G       *cfg.Graph
	Sol     *dataflow.Solution
	Rows    *kernel.Bits
	NumVars int
}

// AnalyzeBoxed runs live-variable analysis over g on the boxed reference
// solver, the test oracle for AnalyzePacked. guide, when non-nil,
// restricts propagation to the executable sub-graph of a prior forward
// solution over the same g (see Problem.Guide). Its facts are packed
// into rows.
func AnalyzeBoxed(g *cfg.Graph, numVars int, guide *dataflow.Solution) *Result {
	sol := dataflow.Solve(g, &Problem{NumVars: numVars, Guide: guide})
	rows := kernel.PackBits[Set](sol.In, numVars)
	sol.In = nil
	return &Result{G: g, Sol: sol, Rows: rows, NumVars: numVars}
}

// LiveOut returns the live set at node n's exit, or nil if no executable
// path from n reaches the function exit (dead code, or code the guide
// proved unreachable — nothing it computes can be observed). The set is
// the result's own row: treat it as read-only.
func (r *Result) LiveOut(n cfg.NodeID) Set {
	if !r.Sol.Reached[n] {
		return nil
	}
	return Set(r.Rows.Row(int(n)))
}

// Boxed returns the solution with In filled, for the oracle.
func (r *Result) Boxed() *dataflow.Solution {
	return dataflow.Box(r.Sol, func(n int) dataflow.Fact { return r.LiveOut(cfg.NodeID(n)) })
}

// LiveIn returns the live set at node n's entry (nil for nodes with no
// executable path to exit).
func (r *Result) LiveIn(n cfg.NodeID) Set {
	out := r.LiveOut(n)
	if out == nil {
		return nil
	}
	return BlockLiveIn(r.G, n, out)
}

// DeadStores reports, per instruction of node n, whether the instruction
// is a dead store: a pure instruction whose destination is not live
// immediately after it. Nodes without liveness information yield no dead
// stores (conservative).
func (r *Result) DeadStores(n cfg.NodeID) []bool {
	nd := r.G.Node(n)
	flags := make([]bool, len(nd.Instrs))
	if out := r.LiveOut(n); out != nil {
		walkBlock(nd, out.Clone(), flags)
	}
	return flags
}

// DeadStoreCount counts dead stores over the whole graph: static is the
// number of dead pure stores on nodes with liveness information, dyn
// weights each by the node's execution frequency (the paper's
// dynamic-count methodology, extended to a backward client). Only nodes
// the guide (if any) found executable contribute, so dyn measures dead
// work on paths that actually run.
func DeadStoreCount(g *cfg.Graph, r *Result, freq []int64) (static int, dyn int64) {
	for _, nd := range g.Nodes {
		if len(nd.Instrs) == 0 {
			continue
		}
		flags := r.DeadStores(nd.ID)
		for _, dead := range flags {
			if !dead {
				continue
			}
			static++
			if freq != nil {
				dyn += freq[nd.ID]
			}
		}
	}
	return static, dyn
}
