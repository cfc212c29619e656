package constprop

import (
	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// packedDomain is the SoA kernel for the constant lattice: environments
// live as rows of a (kind []uint8, val []int64) arena instead of boxed
// []Value slices. Cells are kept normalized (val = 0 unless Const), so
// raw cell comparison is exactly Env.Equal.
//
// A row holds one cell per column of the graph's cfg.Columns, the
// registers some block reads before writing them; the other registers
// are temporaries no fact carries across a block boundary. Transfer
// runs the block on a full-width overlay indexed by register: it loads
// the non-local registers the block reads from the input row, and every
// temporary is written before the block reads it.
type packedDomain struct {
	g           *cfg.Graph
	conditional bool
	infeasible  []bool  // optional per-EdgeID feasibility mask; masked slots stay -1
	col         []int32 // register → column, -1 for a temporary (cfg.Columns.Col)
	cells       *kernel.KV

	// The overlay, indexed by register: only the registers of the block
	// in Transfer are meaningful.
	ok []uint8
	ov []int64
}

const (
	pkTop    = uint8(Top)
	pkConst  = uint8(Const)
	pkBottom = uint8(Bottom)
)

func (d *packedDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *packedDomain) Grow(rows int)                 { d.cells.Grow(rows) }
func (d *packedDomain) Boundary(dst int)              { d.cells.Fill(dst, pkBottom) }
func (d *packedDomain) Copy(dst, src int)             { d.cells.Copy(dst, src) }
func (d *packedDomain) Equal(a, b int) bool           { return d.cells.Equal(a, b) }

// Meet folds src into dst pointwise (Value.Meet over normalized cells).
func (d *packedDomain) Meet(dst, src int) bool { return meetRows(d.cells, dst, src) }

func meetRows(cells *kernel.KV, dst, src int) bool {
	dk, dv := cells.Row(dst)
	sk, sv := cells.Row(src)
	changed := false
	for i := range dk {
		k, v := meetCell(dk[i], dv[i], sk[i], sv[i])
		if k != dk[i] || v != dv[i] {
			dk[i], dv[i] = k, v
			changed = true
		}
	}
	return changed
}

func meetCell(ak uint8, av int64, bk uint8, bv int64) (uint8, int64) {
	switch {
	case ak == pkTop:
		return bk, bv
	case bk == pkTop:
		return ak, av
	case ak == pkBottom || bk == pkBottom:
		return pkBottom, 0
	case av == bv:
		return ak, av
	default:
		return pkBottom, 0
	}
}

// evalCell is EvalInstr over SoA cells.
func evalCell(in *ir.Instr, k []uint8, v []int64) (uint8, int64) {
	switch {
	case in.Op == ir.Const:
		return pkConst, in.K
	case in.Op.Opaque() || in.Op == ir.Print || in.Op == ir.Nop:
		return pkBottom, 0
	case in.Op.IsUnary():
		switch k[in.A] {
		case pkConst:
			return pkConst, ir.EvalUn(in.Op, v[in.A])
		case pkTop:
			return pkTop, 0
		}
		return pkBottom, 0
	case in.Op.IsBinary():
		ak, bk := k[in.A], k[in.B]
		if ak == pkConst && bk == pkConst {
			return pkConst, ir.EvalBin(in.Op, v[in.A], v[in.B])
		}
		if ak == pkBottom || bk == pkBottom {
			return pkBottom, 0
		}
		return pkTop, 0
	}
	return pkBottom, 0
}

// Transfer symbolically executes the block on the overlay, writes the
// non-local registers it assigns into scratch row 0 over a copy of the
// input row, and marks the executable out-edges — the Wegman-Zadek
// dispatch of the boxed Transfer, without the Env clones (both branch
// legs share the scratch row; the solver copies on delivery).
func (d *packedDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	d.cells.Copy(scratch, in)
	k, v := d.cells.Row(scratch)
	ok, ov, col := d.ok, d.ov, d.col
	nd := d.g.Node(n)
	// Load every non-local register the block reads. One the block
	// writes before reading is loaded too, and overwritten in time.
	load := func(r ir.Var) {
		if c := col[r]; c >= 0 {
			ok[r], ov[r] = k[c], v[c]
		}
	}
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		switch {
		case ins.Op.IsUnary():
			load(ins.A)
		case ins.Op.IsBinary():
			load(ins.A)
			load(ins.B)
		}
	}
	if nd.Kind == cfg.TermBranch {
		load(nd.Cond)
	}
	for i := range nd.Instrs {
		ins := &nd.Instrs[i]
		ck, cv := evalCell(ins, ok, ov)
		if ins.HasDst() {
			ok[ins.Dst], ov[ins.Dst] = ck, cv
			if c := col[ins.Dst]; c >= 0 {
				k[c], v[c] = ck, cv
			}
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
		switch ok[nd.Cond] {
		case pkTop:
			// No evidence about the condition yet: neither leg is
			// known executable (optimistic).
		case pkConst:
			if ov[nd.Cond] != 0 {
				slots[0] = 0
			} else {
				slots[1] = 0
			}
		default:
			slots[0], slots[1] = 0, 0
		}
	case cfg.TermHalt:
		// no successors
	}
	if d.infeasible != nil {
		for i, eid := range nd.Out {
			if i < len(slots) && int(eid) < len(d.infeasible) && d.infeasible[eid] {
				slots[i] = -1
			}
		}
	}
}

// PackedSolver builds a reusable kernel solver for constant propagation
// over g: every Run() re-solves from scratch without allocating. The
// allocs-per-op gate in ci.sh benchmarks exactly this entry point;
// AnalyzePacked wraps it for one-shot use. Its rows are as wide as g's
// column map (cfg.Columns), whatever numVars is.
func PackedSolver(g *cfg.Graph, numVars int, conditional bool) *kernel.Solver {
	return PackedSolverMasked(g, numVars, conditional, nil)
}

// PackedSolverMasked is PackedSolver under an infeasible-edge mask
// (nil behaves like PackedSolver). Each Run reads the mask afresh, so a
// caller that grows it in place between runs solves under the grown
// mask — feasible.Detect's edges-only folds read EdgeExecutable straight
// off the solver this way, with no facts boxed.
func PackedSolverMasked(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) *kernel.Solver {
	return kernel.NewSolver(g, newPackedDomain(g, conditional, infeasible))
}

func newPackedDomain(g *cfg.Graph, conditional bool, infeasible []bool) *packedDomain {
	cols := g.Columns()
	return &packedDomain{
		g: g, conditional: conditional, infeasible: infeasible,
		col: cols.Col, cells: kernel.NewKV(cols.Width()),
		ok: make([]uint8, len(cols.Col)), ov: make([]int64, len(cols.Col)),
	}
}

// AnalyzePacked runs constant propagation on the packed SoA kernel, the
// production solver. The solution is pointwise equal to AnalyzeBoxed's,
// iteration counts included.
func AnalyzePacked(g *cfg.Graph, numVars int, conditional bool) *Result {
	return solvePacked(g, numVars, conditional, nil)
}

func solvePacked(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) *Result {
	d := newPackedDomain(g, conditional, infeasible)
	s := kernel.NewSolver(g, d)
	s.Run()
	// The solver is discarded, so the Result takes its arena and slices
	// as they are: the per-node rows (unreached rows were never written
	// and stay ⊤) and the reachability view.
	w, n := d.cells.Width, g.NumNodes()*d.cells.Width
	rows := kernel.KV{Width: w, Kind: d.cells.Kind[:n:n], Val: d.cells.Val[:n:n]}
	return &Result{G: g, Sol: s.Solution(), Rows: rows, Cols: g.Columns(), NumVars: numVars}
}

// AnalyzeMasked is AnalyzePacked under an infeasible-edge mask:
// Transfer withholds facts along masked edges, so their targets see
// fewer meets (or become unreached). A nil mask is exactly
// AnalyzePacked; AnalyzeBoxedMasked is its reference.
func AnalyzeMasked(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) *Result {
	return solvePacked(g, numVars, conditional, infeasible)
}
