package availexpr

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
)

// instrFX is one instruction's precomputed effect on an availability
// row: the expression bit it generates (-1 for none) and the kill mask
// of its destination write (nil for instructions without one). The
// packed domain resolves expression numbers once per graph, so the hot
// transfer loop never touches the universe's hash map.
type instrFX struct {
	expr int32
	kill []uint64
}

// packedDomain is the bitset kernel for available expressions:
// intersection meet over packed words, kill masks applied word-wise.
type packedDomain struct {
	g     *cfg.Graph
	bits  *kernel.Bits
	guide *dataflow.Solution
	fx    []instrFX // every node's instructions, back to back
	fx0   []int32   // node n's effects are fx[fx0[n]:fx0[n+1]]
}

func newPackedDomain(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *packedDomain {
	d := &packedDomain{
		g:     g,
		bits:  kernel.NewBits(u.Size()),
		guide: guide,
		fx:    make([]instrFX, 0, g.NumInstrs()),
		fx0:   make([]int32, g.NumNodes()+1),
	}
	for _, nd := range g.Nodes {
		d.fx0[nd.ID] = int32(len(d.fx))
		for i := range nd.Instrs {
			ins := &nd.Instrs[i]
			fx := instrFX{expr: -1}
			if e, ok := exprOf(ins); ok {
				fx.expr = int32(u.Index(e))
			}
			if ins.HasDst() {
				fx.kill = u.uses.Row(int(ins.Dst))
			}
			d.fx = append(d.fx, fx)
		}
	}
	d.fx0[g.NumNodes()] = int32(len(d.fx))
	return d
}

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *packedDomain) Grow(rows int)                 { d.bits.Grow(rows) }
func (d *packedDomain) Boundary(dst int)              { d.bits.Clear(dst) }
func (d *packedDomain) Copy(dst, src int)             { d.bits.Copy(dst, src) }
func (d *packedDomain) Meet(dst, src int) bool        { return d.bits.And(dst, src) }
func (d *packedDomain) Equal(a, b int) bool           { return d.bits.Equal(a, b) }

// Transfer pushes availability through the block (gen the expression,
// then kill everything reading the destination) into scratch row 0 and
// delivers it to the executable out-edges.
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	if d.guide != nil && !d.guide.Reached[n] {
		return
	}
	d.bits.Copy(scratch, in)
	for _, fx := range d.fx[d.fx0[n]:d.fx0[n+1]] {
		if fx.expr >= 0 {
			d.bits.Set(scratch, int(fx.expr))
		}
		if fx.kill != nil {
			d.bits.AndNot(scratch, fx.kill)
		}
	}
	nd := d.g.Node(n)
	for i, eid := range nd.Out {
		if d.guide != nil && !d.guide.EdgeExecutable[eid] {
			continue
		}
		slots[i] = 0
	}
}

// AnalyzePacked runs available-expressions on the packed bitset kernel
// using the shared universe u: the production solver. The solution is
// pointwise equal to AnalyzeBoxed's; the Result keeps the solver's rows.
func AnalyzePacked(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *Result {
	d := newPackedDomain(g, u, guide)
	s := kernel.NewSolver(g, d)
	s.Run()
	d.bits.Trim(g.NumNodes())
	return &Result{G: g, U: u, Sol: s.Solution(), Rows: d.bits}
}
