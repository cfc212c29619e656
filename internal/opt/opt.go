// Package opt consumes data-flow solutions and rewrites the analyzed
// graph. Three passes compose the paper's PW-style pre-backend cleanup:
//
//   - Fold: every pure instruction whose constant-propagation result is
//     a known constant becomes a Const load.
//   - FoldIntervals: range analysis catches singleton intervals [k,k]
//     that the constant lattice missed (e.g. values pinned by branch
//     refinement rather than by constant operands).
//   - DeleteDead: guided liveness deletes pure instructions whose
//     destination is provably dead, iterated to a fixpoint (deleting a
//     store can kill the stores feeding it).
//
// Downstream effects (cheaper ALU ops, shorter dependence chains,
// smaller code footprint) are modeled by internal/machine's cost table.
package opt

import (
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/liveness"
)

// Passes selects which optimizer passes run; combine with |.
type Passes uint8

const (
	// PassConst folds constant-propagation results (the paper's PW pass).
	PassConst Passes = 1 << iota
	// PassInterval folds singleton result intervals.
	PassInterval
	// PassDead deletes provably dead pure instructions.
	PassDead
)

// PassesAll enables every pass.
const PassesAll = PassConst | PassInterval | PassDead

// Has reports whether every pass in p is enabled.
func (ps Passes) Has(p Passes) bool { return ps&p == p }

// Counts breaks the optimizer's rewrites down by pass.
type Counts struct {
	// Const counts instructions folded from the constant-propagation
	// solution.
	Const int
	// Interval counts additional folds from singleton result intervals
	// the constant lattice missed.
	Interval int
	// Dead counts provably dead pure instructions deleted by guided
	// liveness.
	Dead int
}

// Total returns the total number of rewritten instructions.
func (c Counts) Total() int { return c.Const + c.Interval + c.Dead }

// Add returns the per-pass sums of c and o.
func (c Counts) Add(o Counts) Counts {
	return Counts{Const: c.Const + o.Const, Interval: c.Interval + o.Interval, Dead: c.Dead + o.Dead}
}

// Fold rewrites the constant-result instructions of g in place and
// returns how many instructions were folded. Only reached nodes are
// rewritten; instructions that are already Const loads are left alone.
//
// Fold mutates g: pass a cfg.Graph.Clone if the analyzed graph must stay
// intact. A hot path graph and its reduction share their blocks with the
// original function, so folding one in place would rewrite the original
// too: they must always be cloned first.
func Fold(g *cfg.Graph, sol *constprop.Result) int {
	folded := 0
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) || len(nd.Instrs) == 0 {
			continue
		}
		vals := sol.InstrValues(nd.ID)
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if in.Op == ir.Const || !in.Op.IsPure() || !in.HasDst() {
				continue
			}
			if !vals[i].IsConst() {
				continue
			}
			*in = ir.Instr{Op: ir.Const, Dst: in.Dst, A: ir.NoVar, B: ir.NoVar, K: vals[i].K}
			folded++
		}
	}
	return folded
}

// FoldIntervals rewrites pure instructions whose result interval is a
// singleton [k, k] into Const loads, returning how many it folded. Run
// after Fold: instructions constant propagation already rewrote are
// Const loads and are skipped, so the count isolates what range analysis
// alone contributed.
//
// Like Fold, FoldIntervals mutates g, so g must own its blocks: never
// pass a hot path graph or reduction uncloned, since their blocks are
// the original function's.
func FoldIntervals(g *cfg.Graph, iv *intervals.Result) int {
	folded := 0
	for _, nd := range g.Nodes {
		if !iv.Reached(nd.ID) || len(nd.Instrs) == 0 {
			continue
		}
		vals := iv.InstrIntervals(nd.ID)
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if in.Op == ir.Const || !in.Op.IsPure() || !in.HasDst() {
				continue
			}
			k, ok := vals[i].IsConst()
			if !ok {
				continue
			}
			*in = ir.Instr{Op: ir.Const, Dst: in.Dst, A: ir.NoVar, B: ir.NoVar, K: k}
			folded++
		}
	}
	return folded
}

// DeleteDead removes pure instructions whose destination is dead,
// according to live-variable analysis guided by guide (pass nil for
// plain liveness). Every operation in the IR is total — division by
// zero yields zero — so deleting an unobserved pure instruction cannot
// change behavior. The pass iterates to a fixpoint: deleting `d = a*a`
// may leave `a`'s defining store dead in turn. Returns the number of
// deleted instructions.
//
// DeleteDead mutates g; unreached nodes (nil liveness facts) are left
// untouched. It compacts each block in its own backing array, which
// writes through even a length-capped alias, so g must own its blocks:
// a hot path graph or reduction shares the original function's and must
// be cloned first.
func DeleteDead(g *cfg.Graph, numVars int, guide *dataflow.Solution) int {
	deleted := 0
	for {
		lv := liveness.AnalyzePacked(g, numVars, guide)
		n := 0
		for _, nd := range g.Nodes {
			if len(nd.Instrs) == 0 {
				continue
			}
			dead := lv.DeadStores(nd.ID)
			keep := nd.Instrs[:0]
			for i := range nd.Instrs {
				if dead != nil && dead[i] {
					n++
					continue
				}
				keep = append(keep, nd.Instrs[i])
			}
			nd.Instrs = keep
		}
		if n == 0 {
			return deleted
		}
		deleted += n
	}
}

// OptimizeFunc clones fn and runs the selected passes: Wegman-Zadek
// constant folding, interval-singleton folding, and guided dead-store
// deletion. It is the per-function baseline optimization (with
// PassConst, the paper's CA = 0 configuration).
func OptimizeFunc(fn *cfg.Func, ps Passes) (*cfg.Func, Counts) {
	out := fn.CloneFunc()
	c := optimize(out.G, out.NumVars(), ps)
	return out, c
}

// OptimizeGraph clones g, analyzes and rewrites it with the selected
// passes, returning the optimized graph. Used for qualified graphs
// (HPG/rHPG), whose own analysis result the caller wants to keep.
func OptimizeGraph(g *cfg.Graph, numVars int, ps Passes) (*cfg.Graph, Counts) {
	out := g.Clone()
	c := optimize(out, numVars, ps)
	return out, c
}

func optimize(g *cfg.Graph, numVars int, ps Passes) Counts {
	var c Counts
	sol := constprop.AnalyzePacked(g, numVars, true)
	if ps.Has(PassConst) {
		c.Const = Fold(g, sol)
	}
	if ps.Has(PassInterval) {
		iv := intervals.AnalyzePacked(g, numVars, true)
		c.Interval = FoldIntervals(g, iv)
	}
	if ps.Has(PassDead) {
		c.Dead = DeleteDead(g, numVars, sol.Sol)
	}
	return c
}
