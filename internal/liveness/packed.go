package liveness

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// packedDomain is the bitset kernel for liveness: live sets live as
// rows of one packed []uint64 arena, the block transfer mutates a
// scratch row in place, and the union meet is a word loop. The guide
// conditioning is identical to the boxed Problem's.
type packedDomain struct {
	g     *cfg.Graph
	bits  *kernel.Bits
	guide *dataflow.Solution
	uses  []ir.Var
}

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Backward }
func (d *packedDomain) Grow(rows int)                 { d.bits.Grow(rows) }
func (d *packedDomain) Boundary(dst int)              { d.bits.Clear(dst) }
func (d *packedDomain) Copy(dst, src int)             { d.bits.Copy(dst, src) }
func (d *packedDomain) Meet(dst, src int) bool        { return d.bits.Or(dst, src) }
func (d *packedDomain) Equal(a, b int) bool           { return d.bits.Equal(a, b) }

// Transfer computes the block's live-in (BlockLiveIn, in place on
// scratch row 0) and delivers it to the executable in-edges.
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	if d.guide != nil && !d.guide.Reached[n] {
		return // node is dead code under the guide: propagate nothing
	}
	d.bits.Copy(scratch, in)
	nd := d.g.Node(n)
	switch nd.Kind {
	case cfg.TermBranch:
		d.add(scratch, nd.Cond)
	case cfg.TermReturn:
		d.add(scratch, nd.Ret)
	}
	for i := len(nd.Instrs) - 1; i >= 0; i-- {
		ins := &nd.Instrs[i]
		if ins.HasDst() {
			d.bits.Unset(scratch, int(ins.Dst))
		}
		d.uses = ins.Uses(d.uses[:0])
		for _, u := range d.uses {
			d.add(scratch, u)
		}
	}
	for i, eid := range nd.In {
		if d.guide != nil && !d.guide.EdgeExecutable[eid] {
			continue
		}
		slots[i] = 0
	}
}

func (d *packedDomain) add(row int, v ir.Var) {
	if v.Valid() {
		d.bits.Set(row, int(v))
	}
}

// AnalyzePacked runs live-variable analysis on the packed bitset
// kernel, the production solver. The solution is pointwise equal to
// AnalyzeBoxed's; the Result keeps the solver's rows.
func AnalyzePacked(g *cfg.Graph, numVars int, guide *dataflow.Solution) *Result {
	d := &packedDomain{g: g, bits: kernel.NewBits(numVars), guide: guide, uses: make([]ir.Var, 0, 8)}
	s := kernel.NewSolver(g, d)
	s.Run()
	d.bits.Trim(g.NumNodes())
	return &Result{G: g, Sol: s.Solution(), Rows: d.bits, NumVars: numVars}
}
