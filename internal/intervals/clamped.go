package intervals

import (
	"fmt"
	"slices"
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
	// Cols, when non-nil, names the registers whose facts cross block
	// boundaries, as ClampedSolver's rows do: Transfer empties every
	// other register in its out-facts, so a change to a temporary never
	// re-queues a successor (see constprop.Problem.Cols). Nil solves at
	// full width.
	Cols *cfg.Columns
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
			if p.Cols != nil && p.Cols.Of(ir.Var(v)) < 0 {
				env[v] = Interval{}
			} else {
				env[v] = Clamp(env[v], p.T)
			}
		}
		out[s] = env
	}
}

// clampedDomain is ClampedProblem on the packed kernel, on an arena of
// its own: a cell is an icell, the indices of its bounds in the
// threshold set T, 8 B per register. Node rows only ever hold
// threshold-bounded cells — Boundary writes ±∞, every Transfer result
// is rounded outward to T, and the hull of two thresholds is a
// threshold — so the indices lose nothing, and since T is sorted,
// Meet, Copy and Equal run on the indices exactly as they would on the
// bounds. The domain does not implement kernel.WidenDomain: that would
// make the solver widen and switch to FIFO order, which ClampedProblem
// never does.
//
// Transfer never rounds the whole environment. A block can only change
// the registers of its static write set W(n) — its instructions'
// destinations and the registers its branch plan refines — so Transfer
// copies the input index row into each slot row it fills and rewrites
// only W(n). The block and the refinement run unclamped on an int64
// overlay holding W(n) and the registers the block reads, exactly as
// Problem.Transfer runs them, and each W(n) cell is stored back rounded
// outward to T. That is ClampedProblem's whole-environment clamp: a
// register outside W(n) keeps its input cell, already on T, and Clamp
// leaves a threshold bound where it is.
//
// A row holds one cell per column of a cfg.Columns map. ClampedSolver,
// whose callers read only executable edges, uses the graph's map, one
// column per non-local register: a temporary is written before it is
// read in every block, so the overlay computes it from the loaded
// registers and no row needs to carry it. AnalyzeClampedMasked, whose
// rows hold whole environments, uses the identity map. Either way the lists
// below name only registers with a column; registers outside them are
// temporaries the block itself writes first.
//
// The overlay also keeps each register's index pair while it is known
// (clean): a loaded register has its input indices, a Const result its
// literal's (precomputed), a Copy its source's. Only a register another
// instruction or the refinement changed costs a lookup in T.
type clampedDomain struct {
	g                   *cfg.Graph
	nv                  int     // row width: the map's column count
	col                 []int32 // register → column, -1 for a temporary
	conditional         bool
	infeasible          []bool // optional per-EdgeID feasibility mask; masked slots stay -1
	t                   []int64
	fullCell, emptyCell icell   // (−∞, +∞) and the empty interval (+∞, −∞)
	rows                []icell // the arena: row r is rows[r*nv : (r+1)*nv]
	branchPlans                 // set for conditional domains

	nodes []clampedNode // per node
	sets  []int32       // the nodes' register lists, back to back
	kidx  []icell       // each Const instruction's literal, rounded to T

	// The overlay, indexed by register: only the registers of the node
	// in Transfer are meaningful.
	lo, hi []int64
	ix     []icell       // a clean register's index pair, or dirty
	saved  []overlayCell // the plan registers at block exit, for each leg
}

// icell is one clamped interval as the indices of its bounds in T,
// the lower in the high half. The empty interval is (len(T)−1, 0), T's
// (+∞, −∞): lo > hi marks it, as in the span rows, and raw cell
// comparison is lattice equality.
type icell uint64

func mkcell(lo, hi uint32) icell { return icell(lo)<<32 | icell(hi) }
func (c icell) lo() uint32       { return uint32(c >> 32) }
func (c icell) hi() uint32       { return uint32(c) }
func (c icell) empty() bool      { return c.lo() > c.hi() }

// dirty marks an overlay register whose index pair is unknown.
const dirty = ^icell(0)

// clampedNode locates one node's static register lists in sets:
// sets[w0:w1] is W(n), sets[w1:r1] the other registers its block or
// branch reads, both restricted to registers with a column. kidx[k0:]
// holds its Const instructions' index pairs.
type clampedNode struct{ w0, w1, r1, k0 int32 }

type overlayCell struct {
	lo, hi int64
	ix     icell
}

func newClampedDomain(g *cfg.Graph, numVars int, cols *cfg.Columns, thresholds []int64, conditional bool, infeasible []bool) *clampedDomain {
	top := uint32(len(thresholds) - 1)
	d := &clampedDomain{
		g:           g,
		nv:          cols.Width(),
		col:         cols.Col,
		conditional: conditional,
		infeasible:  infeasible,
		t:           thresholds,
		fullCell:    mkcell(0, top),
		emptyCell:   mkcell(top, 0),
		nodes:       make([]clampedNode, len(g.Nodes)),
		lo:          make([]int64, numVars),
		hi:          make([]int64, numVars),
		ix:          make([]icell, numVars),
	}
	if conditional {
		d.branchPlans = buildPlans(g, numVars)
	}
	// Each instruction lists at most three registers, each branch its
	// plan's and its condition.
	d.sets = make([]int32, 0, 3*g.NumInstrs()+len(d.regs)+len(g.Nodes))
	// listed[v] is one more than the last node that listed register v.
	listed := make([]int32, numVars)
	maxPlan := 0
	for _, nd := range g.Nodes {
		stamp := int32(nd.ID) + 1
		add := func(v int32) {
			if int(v) < len(d.col) && d.col[v] >= 0 && listed[v] != stamp {
				listed[v] = stamp
				d.sets = append(d.sets, v)
			}
		}
		cn := clampedNode{w0: int32(len(d.sets)), k0: int32(len(d.kidx))}
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if !in.HasDst() {
				continue
			}
			add(int32(in.Dst))
			if in.Op == ir.Const {
				d.kidx = append(d.kidx, mkcell(floorIndex(thresholds, in.K), ceilIndex(thresholds, in.K)))
			}
		}
		branch := conditional && nd.Kind == cfg.TermBranch
		if branch {
			pl := d.plans[nd.ID]
			for _, v := range d.regs[pl.cond0:pl.end] {
				add(v)
			}
			maxPlan = max(maxPlan, int(pl.end-pl.cond0))
		}
		cn.w1 = int32(len(d.sets))
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			switch {
			case !in.HasDst():
			case in.Op.IsUnary():
				add(int32(in.A))
			case in.Op.IsBinary():
				add(int32(in.A))
				add(int32(in.B))
			}
		}
		if branch {
			add(int32(nd.Cond))
		}
		cn.r1 = int32(len(d.sets))
		d.nodes[nd.ID] = cn
	}
	d.saved = make([]overlayCell, maxPlan)
	return d
}

func (d *clampedDomain) Direction() dataflow.Direction { return dataflow.Forward }

// Grow ensures the arena holds at least rows rows.
func (d *clampedDomain) Grow(rows int) {
	if need := rows * d.nv; len(d.rows) < need {
		d.rows = make([]icell, need)
	}
}

func (d *clampedDomain) row(r int) []icell {
	o := r * d.nv
	return d.rows[o : o+d.nv : o+d.nv]
}

// Boundary writes the all-⊥ (full-range) environment.
func (d *clampedDomain) Boundary(dst int) {
	r := d.row(dst)
	for i := range r {
		r[i] = d.fullCell
	}
}

func (d *clampedDomain) Copy(dst, src int) { copy(d.row(dst), d.row(src)) }

func (d *clampedDomain) Equal(a, b int) bool { return slices.Equal(d.row(a), d.row(b)) }

// Meet hulls src into dst pointwise: an empty src cell leaves dst as it
// is, an empty dst cell takes src, and otherwise the bound indices
// spread to cover both.
func (d *clampedDomain) Meet(dst, src int) bool {
	dr, sr := d.row(dst), d.row(src)
	changed := false
	for i, s := range sr {
		c := dr[i]
		if s == c || s.empty() {
			continue
		}
		if !c.empty() {
			s = mkcell(min(s.lo(), c.lo()), max(s.hi(), c.hi()))
			if s == c {
				continue
			}
		}
		dr[i] = s
		changed = true
	}
	return changed
}

// Transfer loads n's registers into the overlay, runs the block there,
// and stores one slot row per executable leg: scratch row 0 for jumps,
// returns and unconditional branches, 1 for the taken leg and 2 for the
// fall-through leg, each refined on the overlay first. Legs the mask
// withholds are not computed.
func (d *clampedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	nd := d.g.Node(n)
	cn := d.nodes[n]
	src := d.row(in)
	t, lo, hi, ix := d.t, d.lo, d.hi, d.ix
	for _, v := range d.sets[cn.w0:cn.r1] {
		c := src[d.col[v]]
		lo[v], hi[v], ix[v] = t[c.lo()], t[c.hi()], c
	}
	k := cn.k0
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		if !ins.HasDst() {
			continue
		}
		v := ins.Dst
		switch ins.Op {
		case ir.Const:
			lo[v], hi[v], ix[v] = ins.K, ins.K, d.kidx[k]
			k++
		case ir.Copy:
			lo[v], hi[v], ix[v] = lo[ins.A], hi[ins.A], ix[ins.A]
		default:
			put(lo, hi, int(v), evalSpan(ins, lo, hi))
			ix[v] = dirty
		}
	}
	switch nd.Kind {
	case cfg.TermJump, cfg.TermReturn:
		if d.open(nd, 0) {
			d.store(cn, src, scratch)
			slots[0] = 0
		}
	case cfg.TermBranch:
		if !d.conditional {
			o0, o1 := d.open(nd, 0), d.open(nd, 1)
			if o0 || o1 {
				d.store(cn, src, scratch)
			}
			if o0 {
				slots[0] = 0
			}
			if o1 {
				slots[1] = 0
			}
			return
		}
		c := cell(lo, hi, int(nd.Cond))
		if c.IsEmpty() {
			return // no evidence yet
		}
		taken := (c.Hi > 0 || c.Lo < 0) && d.open(nd, 0)
		fall := c.Contains(0) && d.open(nd, 1)
		if !taken && !fall {
			return
		}
		pl := &d.plans[n]
		pr := d.regs[pl.cond0:pl.end]
		sv := d.saved[:len(pr)]
		for j, v := range pr {
			sv[j] = overlayCell{lo[v], hi[v], ix[v]}
		}
		if taken {
			d.leg(nd, pr, sv, true)
			d.store(cn, src, scratch+1)
			slots[0] = 1
		}
		if fall {
			d.leg(nd, pr, sv, false)
			d.store(cn, src, scratch+2)
			slots[1] = 2
		}
	case cfg.TermHalt:
	}
}

// open reports whether the mask leaves nd's slot-i edge executable.
func (d *clampedDomain) open(nd *cfg.Node, i int) bool {
	eid := nd.Out[i]
	return int(eid) >= len(d.infeasible) || !d.infeasible[eid]
}

// leg resets the plan registers pr to their block-exit cells sv and
// refines them for one branch leg, marking dirty those it changed.
func (d *clampedDomain) leg(nd *cfg.Node, pr []int32, sv []overlayCell, taken bool) {
	lo, hi, ix := d.lo, d.hi, d.ix
	for j, v := range pr {
		lo[v], hi[v], ix[v] = sv[j].lo, sv[j].hi, sv[j].ix
	}
	d.refine(nd, lo, hi, taken)
	for j, v := range pr {
		if lo[v] != sv[j].lo || hi[v] != sv[j].hi {
			ix[v] = dirty
		}
	}
}

// store writes row dst: the input row src with the column of every
// W(n) register replaced by its overlay cell rounded outward to T. A
// dirty cell's rounding is kept in the overlay, so a second leg reuses
// it.
func (d *clampedDomain) store(cn clampedNode, src []icell, dst int) {
	out := d.row(dst)
	copy(out, src)
	for _, v := range d.sets[cn.w0:cn.w1] {
		col := d.col[v]
		c := d.ix[v]
		if c == dirty {
			c = d.round(d.lo[v], d.hi[v], src[col])
			d.ix[v] = c
		}
		out[col] = c
	}
}

// round is Clamp on indices: the empty cell for lo > hi, else the
// largest threshold ≤ lo and the smallest ≥ hi. A bound equal to its
// counterpart in the register's input cell in keeps that index without
// a search.
func (d *clampedDomain) round(lo, hi int64, in icell) icell {
	if lo > hi {
		return d.emptyCell
	}
	t := d.t
	l, h := in.lo(), in.hi()
	if t[l] != lo {
		l = floorIndex(t, lo)
	}
	if t[h] != hi {
		h = ceilIndex(t, hi)
	}
	return mkcell(l, h)
}

// floorIndex returns the index of the largest threshold ≤ k; t is
// sorted and starts with NegInf.
func floorIndex(t []int64, k int64) uint32 {
	i, j := 0, len(t)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t[h] <= k {
			i = h + 1
		} else {
			j = h
		}
	}
	return uint32(i - 1)
}

// ceilIndex returns the index of the smallest threshold ≥ k; t is
// sorted and ends with PosInf.
func ceilIndex(t []int64, k int64) uint32 {
	i, j := 0, len(t)
	for i < j {
		h := int(uint(i+j) >> 1)
		if t[h] < k {
			i = h + 1
		} else {
			j = h
		}
	}
	return uint32(i)
}

// CheckClampedWriteSets verifies the static write sets the packed
// clamped domain confines its Transfer to. It solves the analysis over
// g, runs both the packed Transfer and ClampedProblem's boxed Transfer
// once more on every reached node's fact, and reports the first
// out-fact cell that differs from the node's fact in a register outside
// W(n). The differential tests run it on every graph tier.
func CheckClampedWriteSets(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) error {
	d := newClampedDomain(g, numVars, cfg.AllColumns(numVars), thresholds, conditional, infeasible)
	s := kernel.NewSolver(g, d)
	s.Run()
	// r reads the whole arena, the Transfer scratch rows included.
	r := &Result{G: g, Sol: s.Solution(), n: numVars, cells: d.rows, t: thresholds}
	boxed := &ClampedProblem{NumVars: numVars, Conditional: conditional, T: thresholds, Infeasible: infeasible}
	scratch := g.NumNodes() // the solver's first Transfer scratch row
	inW := make([]bool, numVars)
	for _, nd := range g.Nodes {
		if !s.Reached[nd.ID] {
			continue
		}
		cn := d.nodes[nd.ID]
		clear(inW)
		for _, v := range d.sets[cn.w0:cn.w1] {
			inW[v] = true
		}
		in := r.EnvAt(nd.ID)
		slots := make([]int8, len(nd.Out))
		for i := range slots {
			slots[i] = -1
		}
		d.Transfer(nd.ID, int(nd.ID), scratch, slots)
		outs := make([]dataflow.Fact, len(nd.Out))
		boxed.Transfer(g, nd.ID, in, outs)
		for i := range nd.Out {
			for v := range in {
				packed, ref := in[v], in[v]
				if slots[i] >= 0 {
					packed = r.at(scratch+int(slots[i]), v)
				}
				if outs[i] != nil {
					ref = outs[i].(Env)[v]
				}
				for _, out := range []Interval{packed, ref} {
					if out != in[v] && !inW[v] {
						return fmt.Errorf("node %d slot %d: register %d changes from %v to %v outside the write set", nd.ID, i, v, in[v], out)
					}
				}
			}
		}
	}
	return nil
}

// ClampedSolver builds a reusable packed solver for the widening-free
// threshold-lattice range analysis over g. Every Run re-solves from
// scratch without allocating and reads infeasible (which may be nil)
// afresh, so a caller that grows the mask in place between runs solves
// under the grown mask. Its rows hold g's non-local registers only
// (cfg.Columns), so only its Reached, EdgeExecutable and Iterations
// are meant to be read; they equal those of dataflow.Solve over the
// same ClampedProblem with Cols set to g's map, and its Reached and
// EdgeExecutable those of the full-width solve too.
func ClampedSolver(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) *kernel.Solver {
	return kernel.NewSolver(g, newClampedDomain(g, numVars, g.Columns(), thresholds, conditional, infeasible))
}

// AnalyzeClampedMasked runs the widening-free threshold-lattice range
// analysis over g under an infeasible-edge mask (nil for none). Callers
// comparing solutions across graph tiers must pass the same threshold
// set to every tier. It solves on the packed kernel at full width (the
// identity column map) and keeps the threshold-index rows, which read
// back through T; the solution equals dataflow.Solve over the same
// ClampedProblem without Cols, iteration counts included.
func AnalyzeClampedMasked(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) *Result {
	d := newClampedDomain(g, numVars, cfg.AllColumns(numVars), thresholds, conditional, infeasible)
	s := kernel.NewSolver(g, d)
	s.Run()
	n := g.NumNodes() * d.nv
	return &Result{G: g, Sol: s.Solution(), n: numVars, cells: d.rows[:n:n], t: thresholds}
}

// CheckClampedNarrow reports the first node whose reachability, or
// edge whose executability, differs between ClampedSolver, which solves
// over g's column map, and the full-width solve AnalyzeClampedMasked
// runs, both under infeasible (nil for none). The differential tests
// and fuzzers run it on every graph tier.
func CheckClampedNarrow(g *cfg.Graph, numVars int, thresholds []int64, conditional bool, infeasible []bool) error {
	s := ClampedSolver(g, numVars, thresholds, conditional, infeasible)
	s.Run()
	full := AnalyzeClampedMasked(g, numVars, thresholds, conditional, infeasible).Sol
	for n, reached := range full.Reached {
		if s.Reached[n] != reached {
			return fmt.Errorf("node %d: reached=%t, full width %t", n, s.Reached[n], reached)
		}
	}
	for e, exec := range full.EdgeExecutable {
		if s.EdgeExecutable[e] != exec {
			return fmt.Errorf("edge %d: executable=%t, full width %t", e, s.EdgeExecutable[e], exec)
		}
	}
	return nil
}
