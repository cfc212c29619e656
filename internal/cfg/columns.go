package cfg

import "pathflow/internal/ir"

// Columns is the column map of a graph's narrow fact rows: one column
// per non-local register, a register some block reads before it writes
// it (a branch condition counts as a read at the block's end). Every
// other register is a temporary local to each block that uses it: it
// is written before it is read in every block, so its value never
// crosses a block boundary into an operand or a branch, and an analysis
// that carries facts only for the non-local registers decides the same
// edges and the same non-local facts as one that carries all of them.
// The non-local set is the "global names" of Briggs, Cooper, Harvey and
// Simpson's semi-pruned SSA. Print and Call operands do not count as
// reads: no lattice value depends on them.
type Columns struct {
	// Regs lists the non-local registers in ascending order: column c
	// holds register Regs[c].
	Regs []ir.Var
	// Col maps register r to its column, or to -1 when r is local.
	// Every register the graph mentions is below len(Col); registers
	// from len(Col) on are local.
	Col []int32
}

// Width returns the number of columns.
func (c *Columns) Width() int { return len(c.Regs) }

// Of returns register r's column, or -1 when r is local.
func (c *Columns) Of(r ir.Var) int {
	if int(r) < len(c.Col) {
		return int(c.Col[r])
	}
	return -1
}

// AllColumns returns the identity map over numVars registers: every
// register has a column, its own index.
func AllColumns(numVars int) *Columns {
	c := &Columns{Regs: make([]ir.Var, numVars), Col: make([]int32, numVars)}
	for r := range c.Regs {
		c.Regs[r] = ir.Var(r)
		c.Col[r] = int32(r)
	}
	return c
}

// Columns returns g's column map, built on first use and kept with the
// graph (or with the graph ShareColumns named). It reads the blocks as
// they are then: a later edit may only remove reads, as constant
// folding does, which leaves the map a superset of the exact one.
func (g *Graph) Columns() *Columns {
	if g.colsOf != nil {
		return g.colsOf.Columns()
	}
	if c := g.cols.Load(); c != nil {
		return c
	}
	c := g.nonLocal()
	if !g.cols.CompareAndSwap(nil, c) {
		c = g.cols.Load()
	}
	return c
}

// ShareColumns makes g answer Columns with src's map. A hot path graph
// and its reduction copy their blocks from the original graph, so the
// original's map covers them and one map serves every tier. Call it
// while building g, before any analysis runs on it.
func (g *Graph) ShareColumns(src *Graph) {
	for src.colsOf != nil {
		src = src.colsOf
	}
	g.colsOf = src
}

func (g *Graph) nonLocal() *Columns {
	maxReg := ir.Var(-1)
	see := func(r ir.Var) { maxReg = max(maxReg, r) }
	for _, nd := range g.Nodes {
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			see(in.Dst)
			see(in.A)
			see(in.B)
			for _, a := range in.Args {
				see(a)
			}
		}
		see(nd.Cond)
		see(nd.Ret)
	}
	n := int(maxReg) + 1
	// written[r] is one more than the last node whose block wrote r.
	written := make([]int32, n)
	c := &Columns{Col: make([]int32, n)}
	read := func(r ir.Var, stamp int32) {
		if written[r] != stamp {
			c.Col[r] = 1 // marked; numbered below
		}
	}
	for _, nd := range g.Nodes {
		stamp := int32(nd.ID) + 1
		for i := range nd.Instrs {
			in := &nd.Instrs[i]
			switch {
			case in.Op.IsUnary():
				read(in.A, stamp)
			case in.Op.IsBinary():
				read(in.A, stamp)
				read(in.B, stamp)
			}
			if in.HasDst() {
				written[in.Dst] = stamp
			}
		}
		if nd.Kind == TermBranch {
			read(nd.Cond, stamp)
		}
	}
	for r, marked := range c.Col {
		if marked == 0 {
			c.Col[r] = -1
			continue
		}
		c.Col[r] = int32(len(c.Regs))
		c.Regs = append(c.Regs, ir.Var(r))
	}
	return c
}
