package intervals

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// packedDomain is the SoA kernel for range analysis: environments live
// as rows of a (lo []int64, hi []int64) arena. The empty interval is
// encoded canonically as lo > hi (kernel.Span's convention), so raw
// cell comparison matches Env.Equal. Branch refinement runs from plans
// built once per graph instead of the boxed path's per-call value
// numbering: which registers hold the condition and its comparison's
// operands depends only on the block, never on the facts.
type packedDomain struct {
	g           *cfg.Graph
	nv          int
	conditional bool
	spans       *kernel.Span
	branchPlans // set for conditional domains
}

// branchPlans holds, per branch node, the registers its comparison
// refinement reads and clips.
type branchPlans struct {
	plans []refinePlan // per node; set for branch nodes
	regs  []int32      // the plans' register lists, back to back
}

// refinePlan is refineBranch's fact-independent half for one branch
// node: regs[cond0:as0] hold the condition's value at block exit, and
// when the condition is a comparison defined in the block,
// regs[as0:bs0] and regs[bs0:end] hold its two operands.
type refinePlan struct {
	cond0, as0, bs0, end int32
	op                   ir.Op
	isComparison         bool
}

// pdef tracks the defining comparison of a value token, if any (the
// boxed path's block-local value-numbering map, flattened).
type pdef struct {
	op           ir.Op
	tokA, tokB   int32
	isComparison bool
}

func newPackedDomain(g *cfg.Graph, numVars int, conditional bool) *packedDomain {
	d := &packedDomain{
		g:           g,
		nv:          numVars,
		conditional: conditional,
		spans:       kernel.NewSpan(numVars),
	}
	if conditional {
		d.branchPlans = buildPlans(g, d.nv)
	}
	return d
}

// buildPlans runs refineBranch's block-local value numbering once per
// branch node and records the registers each refinement touches.
func buildPlans(g *cfg.Graph, nv int) branchPlans {
	d := branchPlans{plans: make([]refinePlan, len(g.Nodes))}
	tokens := make([]int32, nv)
	var defs []pdef // defs[tok - nv], one per non-Copy dst instr of the block
	holders := func(tok int32) {
		for v := range tokens {
			if tokens[v] == tok {
				d.regs = append(d.regs, int32(v))
			}
		}
	}
	for _, nd := range g.Nodes {
		if nd.Kind != cfg.TermBranch {
			continue
		}
		for i := range tokens {
			tokens[i] = int32(i)
		}
		next := int32(nv)
		defs = defs[:0]
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			if !in.HasDst() {
				continue
			}
			if in.Op == ir.Copy {
				tokens[in.Dst] = tokens[in.A]
				continue
			}
			tok := next
			next++
			var pd pdef
			switch in.Op {
			case ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge:
				pd = pdef{op: in.Op, tokA: tokens[in.A], tokB: tokens[in.B], isComparison: true}
			}
			defs = append(defs, pd)
			tokens[in.Dst] = tok
		}
		condTok := tokens[nd.Cond]
		pl := refinePlan{cond0: int32(len(d.regs))}
		holders(condTok)
		pl.as0 = int32(len(d.regs))
		pl.bs0 = pl.as0
		if condTok >= int32(nv) {
			if pd := defs[condTok-int32(nv)]; pd.isComparison {
				pl.op, pl.isComparison = pd.op, true
				holders(pd.tokA)
				pl.bs0 = int32(len(d.regs))
				holders(pd.tokB)
			}
		}
		pl.end = int32(len(d.regs))
		d.plans[nd.ID] = pl
	}
	return d
}

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *packedDomain) Grow(rows int)                 { d.spans.Grow(rows) }
func (d *packedDomain) Copy(dst, src int)             { d.spans.Copy(dst, src) }
func (d *packedDomain) Equal(a, b int) bool           { return d.spans.Equal(a, b) }

// Boundary writes the all-⊥ (full-range) environment.
func (d *packedDomain) Boundary(dst int) {
	lo, hi := d.spans.Row(dst)
	for i := range lo {
		lo[i], hi[i] = NegInf, PosInf
	}
}

// cell decodes one interval; put encodes one (empty ⇒ lo > hi).
func cell(lo, hi []int64, i int) Interval {
	if lo[i] > hi[i] {
		return Interval{}
	}
	return Interval{Lo: lo[i], Hi: hi[i], present: true}
}

func put(lo, hi []int64, i int, v Interval) {
	if !v.present {
		lo[i], hi[i] = PosInf, NegInf
		return
	}
	lo[i], hi[i] = v.Lo, v.Hi
}

// Meet hulls src into dst pointwise, on the raw cells: an empty src
// cell leaves dst as it is, an empty dst cell takes src, and otherwise
// the bounds spread to cover both.
func (d *packedDomain) Meet(dst, src int) bool {
	dl, dh := d.spans.Row(dst)
	sl, sh := d.spans.Row(src)
	changed := false
	for i := range dl {
		lo, hi := sl[i], sh[i]
		if lo > hi {
			continue
		}
		if dl[i] > dh[i] {
			dl[i], dh[i] = lo, hi
			changed = true
			continue
		}
		if lo < dl[i] {
			dl[i] = lo
			changed = true
		}
		if hi > dh[i] {
			dh[i] = hi
			changed = true
		}
	}
	return changed
}

// WidenInto extrapolates: merged = ∇(old, merged), pointwise.
func (d *packedDomain) WidenInto(old, merged int) {
	ol, oh := d.spans.Row(old)
	ml, mh := d.spans.Row(merged)
	for i := range ml {
		put(ml, mh, i, cell(ol, oh, i).Widen(cell(ml, mh, i)))
	}
}

// evalSpan is EvalInstr over SoA cells.
func evalSpan(in *ir.Instr, lo, hi []int64) Interval {
	switch {
	case in.Op == ir.Const:
		return ConstI(in.K)
	case in.Op.Opaque() || in.Op == ir.Print || in.Op == ir.Nop:
		return Full()
	case in.Op.IsUnary():
		return EvalUn(in.Op, cell(lo, hi, int(in.A)))
	case in.Op.IsBinary():
		return EvalBin(in.Op, cell(lo, hi, int(in.A)), cell(lo, hi, int(in.B)))
	}
	return Full()
}

// Transfer executes the block in scratch row 0, then refines each branch
// leg into its own scratch row (1 = taken, 2 = fall-through), pruning
// legs whose conditions are decided — the boxed Transfer without the
// Env clones.
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	d.spans.Copy(scratch, in)
	lo, hi := d.spans.Row(scratch)
	nd := d.g.Node(n)
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		iv := evalSpan(ins, lo, hi)
		if ins.HasDst() {
			put(lo, hi, int(ins.Dst), iv)
		}
	}
	switch nd.Kind {
	case cfg.TermJump, cfg.TermReturn:
		slots[0] = 0
	case cfg.TermBranch:
		if !d.conditional {
			slots[0], slots[1] = 0, 0
			return
		}
		c := cell(lo, hi, int(nd.Cond))
		if c.IsEmpty() {
			return // no evidence yet
		}
		if c.Hi > 0 || c.Lo < 0 {
			d.spans.Copy(scratch+1, scratch)
			tl, th := d.spans.Row(scratch + 1)
			d.refine(nd, tl, th, true)
			slots[0] = 1
		}
		if c.Contains(0) {
			d.spans.Copy(scratch+2, scratch)
			fl, fh := d.spans.Row(scratch + 2)
			d.refine(nd, fl, fh, false)
			slots[1] = 2
		}
	case cfg.TermHalt:
	}
}

// refine is refineBranch over SoA cells, driven by n's plan. It reads
// and writes only the plan's registers.
func (d *branchPlans) refine(nd *cfg.Node, lo, hi []int64, taken bool) {
	pl := &d.plans[nd.ID]

	// The condition itself is 0 on the fall-through leg, non-zero on the
	// taken leg; clip every register holding its value.
	for _, v := range d.regs[pl.cond0:pl.as0] {
		if taken {
			iv := cell(lo, hi, int(v))
			if iv.Contains(0) {
				// Only boundary zeros can be removed from an interval.
				if iv.Lo == 0 && iv.Hi > 0 {
					put(lo, hi, int(v), iv.Intersect(Range(1, PosInf)))
				} else if iv.Hi == 0 && iv.Lo < 0 {
					put(lo, hi, int(v), iv.Intersect(Range(NegInf, -1)))
				}
			}
		} else {
			put(lo, hi, int(v), cell(lo, hi, int(v)).Intersect(ConstI(0)))
		}
	}

	as, bs := d.regs[pl.as0:pl.bs0], d.regs[pl.bs0:pl.end]
	if !pl.isComparison || (len(as) == 0 && len(bs) == 0) {
		return
	}
	op := pl.op
	if !taken {
		op = negateCmp(op)
	}
	// Operand intervals (all regs in a group hold the same value).
	aIv, bIv := Full(), Full()
	if len(as) > 0 {
		aIv = cell(lo, hi, int(as[0]))
	}
	if len(bs) > 0 {
		bIv = cell(lo, hi, int(bs[0]))
	}
	newA, newB := refineCmp(op, aIv, bIv)
	for _, v := range as {
		put(lo, hi, int(v), cell(lo, hi, int(v)).Intersect(newA))
	}
	for _, v := range bs {
		put(lo, hi, int(v), cell(lo, hi, int(v)).Intersect(newB))
	}
}

// AnalyzePacked runs range analysis on the packed SoA kernel, the
// production solver. The solution is pointwise equal to AnalyzeBoxed's,
// iteration counts included; the Result keeps the solver's rows.
func AnalyzePacked(g *cfg.Graph, numVars int, conditional bool) *Result {
	d := newPackedDomain(g, numVars, conditional)
	s := kernel.NewSolver(g, d)
	s.Run()
	n := g.NumNodes() * numVars
	rows := &kernel.Span{Width: numVars, Lo: d.spans.Lo[:n:n], Hi: d.spans.Hi[:n:n]}
	return &Result{G: g, Sol: s.Solution(), n: numVars, spans: rows}
}
