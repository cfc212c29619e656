// Package availexpr implements available-expressions analysis, a
// forward *must* (intersection) client of the data-flow framework.
//
// An expression op(a, b) over registers is available at a point if every
// executable path to that point computes it after the last write to a or
// b. Because availability intersects over incoming paths, the raw CFG
// loses facts at every join whose cold predecessor lacks the
// expression; on the hot path graph the paths reaching a duplicated
// vertex (v, q) are a subset of the paths reaching v, so intersections
// are taken over fewer, hotter histories and strictly more expressions
// survive (the same mechanism that powers the paper's constant results,
// exercised here on a set lattice ordered by ⊇ instead of the constant
// lattice).
//
// The optimistic solver's nil-fact-for-unreached corresponds exactly to
// the textbook initialization of every block to the full universe.
package availexpr

import (
	"fmt"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// Expr is a canonical pure computation over registers: op with operand
// registers A (and B for binary ops; NoVar otherwise). Const
// instructions define no expression — they are trivially available
// everywhere they are reachable and carry no cross-path information.
type Expr struct {
	Op   ir.Op
	A, B ir.Var
}

func (e Expr) String() string {
	if e.B.Valid() {
		return fmt.Sprintf("%v v%d, v%d", e.Op, e.A, e.B)
	}
	return fmt.Sprintf("%v v%d", e.Op, e.A)
}

// exprOf returns the expression an instruction computes, if any.
func exprOf(in *ir.Instr) (Expr, bool) {
	if !in.Op.IsPure() || !in.HasDst() || in.Op == ir.Const {
		return Expr{}, false
	}
	switch {
	case in.Op.IsUnary():
		return Expr{Op: in.Op, A: in.A, B: ir.NoVar}, true
	case in.Op.IsBinary():
		return Expr{Op: in.Op, A: in.A, B: in.B}, true
	}
	return Expr{}, false
}

// Universe numbers every expression computed anywhere in a graph and
// precomputes, per register, the mask of expressions reading it. A
// universe built from a function's original CFG is shared by the CFG,
// HPG and rHPG runs (hot-path duplication copies instructions, never
// invents them), which keeps the three solutions directly comparable —
// a requirement of the differential oracle. Expression numbering is a
// per-function kernel.Interner: the dense IDs double as bit positions
// in both the boxed Set and the packed arena rows.
type Universe struct {
	Exprs  []Expr
	intern *kernel.Interner[Expr]
	uses   *kernel.Bits // row v: the expressions that read register v
}

// NewUniverse scans g and numbers its expressions.
func NewUniverse(g *cfg.Graph, numVars int) *Universe {
	u := &Universe{intern: kernel.NewInterner[Expr]()}
	for _, nd := range g.Nodes {
		for i := range nd.Instrs {
			if e, ok := exprOf(&nd.Instrs[i]); ok {
				if u.intern.Intern(e) == len(u.Exprs) {
					u.Exprs = append(u.Exprs, e)
				}
			}
		}
	}
	u.uses = kernel.NewBits(len(u.Exprs))
	u.uses.Grow(numVars)
	for i, e := range u.Exprs {
		u.uses.Set(int(e.A), i)
		if e.B.Valid() {
			u.uses.Set(int(e.B), i)
		}
	}
	return u
}

// Size returns the number of expressions in the universe.
func (u *Universe) Size() int { return len(u.Exprs) }

// Index returns the number of expression e, or -1 if e is not in the
// universe.
func (u *Universe) Index(e Expr) int { return u.intern.Lookup(e) }

// Set is a bit set over the universe's expressions.
type Set []uint64

func (u *Universe) newSet() Set { return make(Set, u.uses.Words) }

func (s Set) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s Set) clone() Set     { return append(Set(nil), s...) }
func (s Set) Has(i int) bool { return i >= 0 && s[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of available expressions in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Intersect returns a fresh set holding s ∩ o.
func (s Set) Intersect(o Set) Set {
	out := s.clone()
	for i := range o {
		out[i] &= o[i]
	}
	return out
}

// Equal reports whether the sets are identical.
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

// SupersetOf reports whether s ⊇ o (s is at least as precise: the
// lattice order of this must-analysis is set inclusion, bigger is
// higher).
func (s Set) SupersetOf(o Set) bool {
	for i := range o {
		if o[i]&^s[i] != 0 {
			return false
		}
	}
	return true
}

// Problem is the available-expressions data-flow problem over one graph.
type Problem struct {
	U *Universe
	// Guide optionally restricts propagation to the executable sub-graph
	// of a prior forward solution over the same graph (see
	// liveness.Problem.Guide for the idea). nil analyzes all edges.
	Guide *dataflow.Solution
}

var _ dataflow.Problem = (*Problem)(nil)

// Entry returns the fact at function entry: no expression is available.
func (p *Problem) Entry() dataflow.Fact { return p.U.newSet() }

// Meet intersects two availability sets (must-analysis).
func (p *Problem) Meet(a, b dataflow.Fact) dataflow.Fact {
	return a.(Set).Intersect(b.(Set))
}

// Equal compares two availability sets.
func (p *Problem) Equal(a, b dataflow.Fact) bool {
	return a.(Set).Equal(b.(Set))
}

// walkBlock pushes avail through nd's instructions, in place: each
// computing instruction first makes its expression available, then its
// destination write kills every expression reading the destination (so
// x = x + 1 does not leave x+1 available). redundant, when non-nil,
// flags each instruction whose expression was available before it.
func (u *Universe) walkBlock(nd *cfg.Node, avail Set, redundant []bool) {
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		if e, ok := exprOf(ins); ok {
			if idx := u.Index(e); idx >= 0 {
				if redundant != nil && avail.Has(idx) {
					redundant[i] = true
				}
				avail.set(idx)
			}
		}
		if ins.HasDst() {
			kill := u.uses.Row(int(ins.Dst))
			for w := range avail {
				avail[w] &^= kill[w]
			}
		}
	}
}

// Transfer distributes the block's availability-out to the executable
// out-edges.
func (p *Problem) Transfer(g *cfg.Graph, n cfg.NodeID, in dataflow.Fact, out []dataflow.Fact) {
	if p.Guide != nil && !p.Guide.Reached[n] {
		return
	}
	avail := in.(Set).clone()
	nd := g.Node(n)
	p.U.walkBlock(nd, avail, nil)
	for i, eid := range nd.Out {
		if p.Guide != nil && !p.Guide.EdgeExecutable[eid] {
			continue
		}
		out[i] = avail
	}
}

// Result is a solved availability problem over G: row n of Rows is the
// availability set at node n's entry, and Sol carries the rest of the
// solution but never boxed facts (Sol.In is nil; Boxed boxes them).
type Result struct {
	G    *cfg.Graph
	U    *Universe
	Sol  *dataflow.Solution
	Rows *kernel.Bits
}

// AnalyzeBoxed runs available-expressions over g using the shared
// universe u on the boxed reference solver, the test oracle for
// AnalyzePacked. guide, when non-nil, restricts propagation to a prior
// forward solution's executable sub-graph. Its facts are packed into
// rows.
func AnalyzeBoxed(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *Result {
	sol := dataflow.Solve(g, &Problem{U: u, Guide: guide})
	rows := kernel.PackBits[Set](sol.In, u.Size())
	sol.In = nil
	return &Result{G: g, U: u, Sol: sol, Rows: rows}
}

// AvailIn returns the availability set at node n's entry, or nil if n is
// unreached (conceptually the full universe ⊤). The set is the result's
// own row: treat it as read-only.
func (r *Result) AvailIn(n cfg.NodeID) Set {
	if !r.Sol.Reached[n] {
		return nil
	}
	return Set(r.Rows.Row(int(n)))
}

// Boxed returns the solution with In filled, for the oracle.
func (r *Result) Boxed() *dataflow.Solution {
	return dataflow.Box(r.Sol, func(n int) dataflow.Fact { return r.AvailIn(cfg.NodeID(n)) })
}

// Redundant reports, per instruction of node n, whether the instruction
// recomputes an expression already available just before it — a fully
// redundant computation a compiler could replace with a reuse. Unreached
// nodes yield none.
func (r *Result) Redundant(n cfg.NodeID) []bool {
	nd := r.G.Node(n)
	flags := make([]bool, len(nd.Instrs))
	if in := r.AvailIn(n); in != nil {
		r.U.walkBlock(nd, in.clone(), flags)
	}
	return flags
}

// RedundantCount counts redundant recomputations over the whole graph:
// static is the number of instructions recomputing an available
// expression, dyn weights each by its node's execution frequency — the
// dynamic-count methodology of the paper's Figure 7, applied to a
// must-analysis client.
func RedundantCount(g *cfg.Graph, r *Result, freq []int64) (static int, dyn int64) {
	for _, nd := range g.Nodes {
		if len(nd.Instrs) == 0 {
			continue
		}
		flags := r.Redundant(nd.ID)
		for _, red := range flags {
			if !red {
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
