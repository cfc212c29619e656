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
// cell comparison matches Env.Equal. Branch refinement reuses
// preallocated token/def/operand buffers instead of the boxed path's
// per-call map and slices — the only state refineBranch ever needed
// was block-local and bounded by the function's shape.
type packedDomain struct {
	g                 *cfg.Graph
	nv                int
	conditional       bool
	infeasible        []bool // optional per-EdgeID feasibility mask; masked slots stay -1
	spans             *kernel.Span
	threshold, passes int

	// refine scratch, sized once per graph
	tokens []int32
	defs   []pdef  // defs[tok - nv], one per non-Copy dst instr of the block
	as, bs []int32 // registers holding the comparison operands
}

// pdef tracks the defining comparison of a value token, if any (the
// boxed path's block-local value-numbering map, flattened).
type pdef struct {
	op           ir.Op
	tokA, tokB   int32
	isComparison bool
}

func newPackedDomain(g *cfg.Graph, p *Problem) *packedDomain {
	d := &packedDomain{
		g:           g,
		nv:          p.NumVars,
		conditional: p.Conditional,
		infeasible:  p.Infeasible,
		spans:       kernel.NewSpan(p.NumVars),
		tokens:      make([]int32, p.NumVars),
		as:          make([]int32, 0, p.NumVars),
		bs:          make([]int32, 0, p.NumVars),
	}
	d.threshold, d.passes = dataflow.TuningOf(p)
	maxInstrs := 0
	for _, nd := range g.Nodes {
		if len(nd.Instrs) > maxInstrs {
			maxInstrs = len(nd.Instrs)
		}
	}
	d.defs = make([]pdef, 0, maxInstrs)
	return d
}

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *packedDomain) Grow(rows int)                 { d.spans.Grow(rows) }
func (d *packedDomain) Copy(dst, src int)             { d.spans.Copy(dst, src) }
func (d *packedDomain) Equal(a, b int) bool           { return d.spans.Equal(a, b) }
func (d *packedDomain) Tune() (int, int)              { return d.threshold, d.passes }

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

// Meet hulls src into dst pointwise.
func (d *packedDomain) Meet(dst, src int) bool {
	dl, dh := d.spans.Row(dst)
	sl, sh := d.spans.Row(src)
	changed := false
	for i := range dl {
		m := cell(dl, dh, i).Meet(cell(sl, sh, i))
		nl, nh := m.Lo, m.Hi
		if !m.present {
			nl, nh = PosInf, NegInf
		}
		if nl != dl[i] || nh != dh[i] {
			dl[i], dh[i] = nl, nh
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
	if d.infeasible != nil {
		for i, eid := range nd.Out {
			if i < len(slots) && int(eid) < len(d.infeasible) && d.infeasible[eid] {
				slots[i] = -1
			}
		}
	}
}

// refine is refineBranch over SoA cells with reused scratch buffers.
func (d *packedDomain) refine(nd *cfg.Node, lo, hi []int64, taken bool) {
	tokens := d.tokens
	for i := range tokens {
		tokens[i] = int32(i)
	}
	next := int32(d.nv)
	defs := d.defs[:0]
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
	d.defs = defs
	condTok := tokens[nd.Cond]

	// The condition itself is 0 on the fall-through leg, non-zero on the
	// taken leg; clip every register holding its value.
	for v := range tokens {
		if tokens[v] != condTok {
			continue
		}
		if taken {
			iv := cell(lo, hi, v)
			if iv.Contains(0) {
				// Only boundary zeros can be removed from an interval.
				if iv.Lo == 0 && iv.Hi > 0 {
					put(lo, hi, v, iv.Intersect(Range(1, PosInf)))
				} else if iv.Hi == 0 && iv.Lo < 0 {
					put(lo, hi, v, iv.Intersect(Range(NegInf, -1)))
				}
			}
		} else {
			put(lo, hi, v, cell(lo, hi, v).Intersect(ConstI(0)))
		}
	}

	if condTok < int32(d.nv) {
		return // the condition's value has no defining instruction here
	}
	pd := defs[condTok-int32(d.nv)]
	if !pd.isComparison {
		return
	}
	op := pd.op
	if !taken {
		op = negateCmp(op)
	}
	// Gather the registers still holding the operands' values.
	as, bs := d.as[:0], d.bs[:0]
	for v := range tokens {
		if tokens[v] == pd.tokA {
			as = append(as, int32(v))
		}
		if tokens[v] == pd.tokB {
			bs = append(bs, int32(v))
		}
	}
	d.as, d.bs = as, bs
	if len(as) == 0 && len(bs) == 0 {
		return
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

// env boxes row r into a standard Env.
func (d *packedDomain) env(r int) Env {
	lo, hi := d.spans.Row(r)
	e := make(Env, len(lo))
	for i := range lo {
		e[i] = cell(lo, hi, i)
	}
	return e
}

// analyzePacked runs range analysis on the packed SoA kernel. The
// solution is pointwise equal to the boxed solver's for the same
// Problem, iteration counts included.
func analyzePacked(g *cfg.Graph, p *Problem) *Result {
	d := newPackedDomain(g, p)
	s := kernel.NewSolver(g, d)
	s.Run()
	sol := s.Materialize(func(row int) dataflow.Fact { return d.env(row) })
	return &Result{G: g, Sol: sol, n: p.NumVars}
}

// AnalyzePacked runs range analysis on the packed SoA kernel.
func AnalyzePacked(g *cfg.Graph, numVars int, conditional bool) *Result {
	return analyzePacked(g, &Problem{NumVars: numVars, Conditional: conditional})
}
