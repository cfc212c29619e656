package intervals

import (
	"sort"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// This file implements the widening-free variant of range analysis used
// by the precision differential oracle.
//
// The production analysis (Problem) converges on loops by widening, and
// widening is not monotone in the graph: a hot path graph can widen at
// different loop heads than the original CFG, so its solution is not
// guaranteed pointwise at least as precise — exactly the property the
// oracle certifies. The fix is classical: restrict interval bounds to a
// finite *threshold set* derived from the program text. Over that
// lattice the analysis is a plain monotone framework of finite height,
// the worklist solver computes its exact greatest fixpoint with no
// widening at all, and the refinement guarantee holds by the same
// argument as for the other clients (assigning each hot-path vertex its
// original vertex's solution is a post-fixpoint of the HPG equations, so
// the HPG's greatest fixpoint lies above it).
//
// Rounding bounds outward to thresholds loses precision relative to the
// widened analysis only transiently; in exchange the result is
// comparable across graph tiers, which the widened result is not.

// Thresholds returns the canonical threshold set for a graph: ±∞, 0, ±1,
// and k−1, k, k+1 for every integer literal k in the program text. Hot
// path graphs copy the original instructions verbatim, so deriving the
// set from any tier of the same function yields the same thresholds —
// but callers comparing tiers should derive it once from the original
// graph and share it, which also shares the work.
func Thresholds(g *cfg.Graph) []int64 {
	seen := map[int64]bool{NegInf: true, PosInf: true, -1: true, 0: true, 1: true}
	add := func(k int64) {
		seen[addSat(k, -1)] = true
		seen[k] = true
		seen[addSat(k, 1)] = true
	}
	for _, nd := range g.Nodes {
		for i := range nd.Instrs {
			if nd.Instrs[i].Op == ir.Const {
				add(nd.Instrs[i].K)
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clamp rounds a's bounds outward to the nearest thresholds in t (which
// must be sorted and contain NegInf and PosInf). Clamping is monotone
// with respect to interval inclusion, so composing it with the monotone
// transfer keeps the framework monotone.
func Clamp(a Interval, t []int64) Interval {
	if a.IsEmpty() {
		return a
	}
	// Largest threshold ≤ Lo.
	i := sort.Search(len(t), func(i int) bool { return t[i] > a.Lo }) - 1
	// Smallest threshold ≥ Hi.
	j := sort.Search(len(t), func(i int) bool { return t[i] >= a.Hi })
	return Interval{Lo: t[i], Hi: t[j], present: true}
}

// ClampedProblem is range analysis over the finite threshold lattice: it
// delegates the transfer to the production Problem and rounds every
// delivered fact's bounds outward to T. It deliberately does NOT
// implement dataflow.Widener — the finite lattice makes widening
// unnecessary, and omitting it is what restores the oracle's guarantee.
// The oracle compares facts with its Meet and Equal; the analyses
// themselves solve on the packed clampedDomain, and dataflow.Solve over
// ClampedProblem remains the boxed reference the tests hold them to.
type ClampedProblem struct {
	NumVars int
	// Conditional enables branch pruning and comparison refinement,
	// exactly as on Problem.
	Conditional bool
	// T is the sorted threshold set (see Thresholds); it must contain
	// NegInf and PosInf.
	T []int64
	// Infeasible, when non-nil, marks edges a prior feasibility analysis
	// proved no execution can take; the delegated Transfer withholds
	// facts along them (see Problem.Infeasible).
	Infeasible []bool
}

var _ dataflow.Problem = (*ClampedProblem)(nil)

func (p *ClampedProblem) inner() *Problem {
	return &Problem{NumVars: p.NumVars, Conditional: p.Conditional, Infeasible: p.Infeasible}
}

// Entry returns the all-⊥ (full-range) environment.
func (p *ClampedProblem) Entry() dataflow.Fact { return NewEnv(p.NumVars, Full()) }

// Meet hulls two facts (threshold bounds are closed under hull).
func (p *ClampedProblem) Meet(a, b dataflow.Fact) dataflow.Fact { return a.(Env).Meet(b.(Env)) }

// Equal compares two facts.
func (p *ClampedProblem) Equal(a, b dataflow.Fact) bool { return a.(Env).Equal(b.(Env)) }

// Transfer runs the production transfer, then clamps each out-fact.
func (p *ClampedProblem) Transfer(g *cfg.Graph, n cfg.NodeID, in dataflow.Fact, out []dataflow.Fact) {
	p.inner().Transfer(g, n, in, out)
	for s, f := range out {
		if f == nil {
			continue
		}
		env := f.(Env)
		for v := range env {
			env[v] = Clamp(env[v], p.T)
		}
		out[s] = env
	}
}

// clampedDomain is ClampedProblem on the packed kernel: packedDomain's
// span rows, Transfer and Meet, with every cell a Transfer changed
// rounded outward to T. It wraps rather than embeds packedDomain so it
// does not inherit WidenInto/Tune: a kernel.WidenDomain would make the
// solver widen and switch to FIFO order, which ClampedProblem never
// does.
//
// Clamping only what changed is exact. Node rows only ever hold
// threshold-bounded cells — Boundary writes ±∞, scratch rows are
// clamped before the solver copies or meets them in, and the hull of
// two thresholds is a threshold — and Clamp leaves a threshold bound
// where it is, so a bound the Transfer left equal to its input bound is
// already what ClampedProblem's whole-environment clamp would make of
// it.
type clampedDomain struct {
	p *packedDomain
	t []int64
}

func (d *clampedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *clampedDomain) Grow(rows int)                 { d.p.Grow(rows) }
func (d *clampedDomain) Boundary(dst int)              { d.p.Boundary(dst) }
func (d *clampedDomain) Copy(dst, src int)             { d.p.Copy(dst, src) }
func (d *clampedDomain) Meet(dst, src int) bool        { return d.p.Meet(dst, src) }
func (d *clampedDomain) Equal(a, b int) bool           { return d.p.Equal(a, b) }

// Transfer runs the range transfer, then clamps, in each scratch row a
// slot points to, the cells that differ from the input row — and of
// those only the bounds that changed (an empty input cell is (+∞, −∞),
// both thresholds too).
func (d *clampedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	d.p.Transfer(n, in, scratch, slots)
	il, ih := d.p.spans.Row(in)
	t := d.t
	var done [3]bool
	for _, sub := range slots {
		if sub < 0 || done[sub] {
			continue
		}
		done[sub] = true
		lo, hi := d.p.spans.Row(scratch + int(sub))
		for v := range lo {
			if lo[v] > hi[v] {
				continue // empty: nothing to round
			}
			if lo[v] != il[v] {
				lo[v] = floorThreshold(t, lo[v])
			}
			if hi[v] != ih[v] {
				hi[v] = ceilThreshold(t, hi[v])
			}
		}
	}
}

// floorThreshold returns the largest threshold ≤ k; t is sorted and
// starts with NegInf.
func floorThreshold(t []int64, k int64) int64 {
	i, j := 0, len(t)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t[h] <= k {
			i = h + 1
		} else {
			j = h
		}
	}
	return t[i-1]
}

// ceilThreshold returns the smallest threshold ≥ k; t is sorted and
// ends with PosInf.
func ceilThreshold(t []int64, k int64) int64 {
	i, j := 0, len(t)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t[h] < k {
			i = h + 1
		} else {
			j = h
		}
	}
	return t[i]
}

// ClampedSolver builds a reusable packed solver for the widening-free
// threshold-lattice range analysis over g. Every Run re-solves from
// scratch without allocating and reads infeasible (which may be nil)
// afresh, so a caller that grows the mask in place between runs solves
// under the grown mask. Its Reached, EdgeExecutable and Iterations equal
// those of dataflow.Solve over the same ClampedProblem.
func ClampedSolver(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) *kernel.Solver {
	return kernel.NewSolver(g, newClampedDomain(g, numVars, thresholds, conditional, infeasible))
}

func newClampedDomain(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) *clampedDomain {
	p := newPackedDomain(g, &Problem{NumVars: numVars, Conditional: conditional, Infeasible: infeasible})
	return &clampedDomain{p: p, t: thresholds}
}

// AnalyzeClamped runs the widening-free threshold-lattice range analysis
// over g. Callers comparing solutions across graph tiers must pass the
// same threshold set to every tier.
func AnalyzeClamped(g *cfg.Graph, numVars int, thresholds []int64, conditional bool) *Result {
	return AnalyzeClampedMasked(g, numVars, thresholds, conditional, nil)
}

// AnalyzeClampedMasked is AnalyzeClamped with an infeasible-edge mask
// (nil behaves like AnalyzeClamped). It solves on the packed kernel and
// boxes the facts; the solution equals dataflow.Solve over the same
// ClampedProblem, iteration counts included.
func AnalyzeClampedMasked(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) *Result {
	d := newClampedDomain(g, numVars, thresholds, conditional, infeasible)
	s := kernel.NewSolver(g, d)
	s.Run()
	sol := s.Materialize(func(row int) dataflow.Fact { return d.p.env(row) })
	return &Result{G: g, Sol: sol, n: numVars}
}
