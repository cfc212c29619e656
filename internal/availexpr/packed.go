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
	u     *Universe
	bits  *kernel.Bits
	guide *dataflow.Solution
	fx    [][]instrFX // per node, per instruction
}

func newPackedDomain(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *packedDomain {
	d := &packedDomain{
		g:     g,
		u:     u,
		bits:  &kernel.Bits{Words: u.words},
		guide: guide,
		fx:    make([][]instrFX, g.NumNodes()),
	}
	for _, nd := range g.Nodes {
		if len(nd.Instrs) == 0 {
			continue
		}
		fx := make([]instrFX, len(nd.Instrs))
		for i := range nd.Instrs {
			ins := &nd.Instrs[i]
			fx[i].expr = -1
			if e, ok := exprOf(ins); ok {
				fx[i].expr = int32(u.Index(e))
			}
			if ins.HasDst() {
				fx[i].kill = u.useMask[ins.Dst]
			}
		}
		d.fx[nd.ID] = fx
	}
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
	for _, fx := range d.fx[n] {
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
// pointwise equal to AnalyzeBoxed's.
func AnalyzePacked(g *cfg.Graph, u *Universe, guide *dataflow.Solution) *Result {
	d := newPackedDomain(g, u, guide)
	s := kernel.NewSolver(g, d)
	s.Run()
	sol := s.Materialize(func(row int) dataflow.Fact {
		return Set(append([]uint64(nil), d.bits.Row(row)...))
	})
	// The boxed path hangs the Problem off the result for callers that
	// re-run TransferBlock; give them the same view.
	return &Result{G: g, U: u, P: &Problem{U: u, Guide: guide}, Sol: sol}
}
