package constprop

import (
	"fmt"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// fullRows returns the solution NumVars registers wide: Rows at the
// non-local registers and the temporaries' facts solved by solveFull.
// The first call builds them; later calls, from any goroutine, share
// them.
func (r *Result) fullRows() *kernel.KV {
	r.fullOnce.Do(func() { r.full.Store(r.solveFull()) })
	return r.full.Load()
}

// solveFull solves the temporaries' facts from the rows. A temporary's
// fact follows a copy-only problem over the solution's executable
// edges: a block that writes it sets it to the value its last write
// takes — evaluated from the block's inputs, which Rows holds — and any
// other block passes it through; the entry holds ⊥. EdgeExecutable
// already records every edge the solve delivered along, so the problem
// needs neither the mask nor the branch conditions, and a decoded
// solution answers it too. Its greatest fixpoint is exactly the
// temporaries' part of the full-width solution: edges and non-local
// facts never depend on a temporary, so the full-width solve's
// temporaries satisfy these equations, and any solution of them above
// those would, joined with Rows, be a fixpoint of the whole problem
// above the greatest one.
func (r *Result) solveFull() *kernel.KV {
	g, nv := r.G, r.NumVars
	d := &localDomain{g: g, exec: r.Sol.EdgeExecutable, gen0: make([]int32, g.NumNodes()+1)}
	col := make([]int32, nv) // register → local column, -1 when non-local
	var locals []ir.Var
	for reg := range col {
		col[reg] = -1
		if r.Cols.Of(ir.Var(reg)) < 0 {
			col[reg] = int32(len(locals))
			locals = append(locals, ir.Var(reg))
		}
	}
	// last[reg] is one more than the last node that generated reg.
	last := make([]int32, nv)
	for _, nd := range g.Nodes {
		d.gen0[nd.ID] = int32(len(d.gens))
		if !r.Sol.Reached[nd.ID] || len(nd.Instrs) == 0 {
			continue
		}
		b := NewBlock(nd.Instrs)
		vals := make([]Value, len(nd.Instrs))
		b.Eval(r.inputs(b, nd.ID), vals)
		stamp := int32(nd.ID) + 1
		for i := len(nd.Instrs) - 1; i >= 0; i-- {
			dst := nd.Instrs[i].Dst
			if !dst.Valid() || col[dst] < 0 || last[dst] == stamp {
				continue
			}
			last[dst] = stamp
			d.gens = append(d.gens, localGen{col: col[dst], kind: uint8(vals[i].Kind), val: vals[i].K})
		}
	}
	d.gen0[g.NumNodes()] = int32(len(d.gens))
	d.cells = kernel.NewKV(len(locals))
	kernel.NewSolver(g, d).Run()

	full := kernel.NewKV(nv)
	full.Grow(g.NumNodes())
	for n, reached := range r.Sol.Reached {
		if !reached {
			continue
		}
		fk, fv := full.Row(n)
		k, v := r.Rows.Row(n)
		for c, reg := range r.Cols.Regs {
			fk[reg], fv[reg] = k[c], v[c]
		}
		lk, lv := d.cells.Row(n)
		for c, reg := range locals {
			fk[reg], fv[reg] = lk[c], lv[c]
		}
	}
	return full
}

// localDomain is solveFull's copy-only problem on the packed kernel,
// one column per temporary.
type localDomain struct {
	g     *cfg.Graph
	exec  []bool     // the solution's EdgeExecutable
	gen0  []int32    // node n's writes are gens[gen0[n]:gen0[n+1]]
	gens  []localGen // per node, the temporaries its block writes
	cells *kernel.KV
}

// localGen is a temporary's value at a block's exit.
type localGen struct {
	col  int32
	kind uint8
	val  int64
}

func (d *localDomain) Direction() dataflow.Direction { return dataflow.Forward }
func (d *localDomain) Grow(rows int)                 { d.cells.Grow(rows) }
func (d *localDomain) Boundary(dst int)              { d.cells.Fill(dst, pkBottom) }
func (d *localDomain) Copy(dst, src int)             { d.cells.Copy(dst, src) }
func (d *localDomain) Equal(a, b int) bool           { return d.cells.Equal(a, b) }
func (d *localDomain) Meet(dst, src int) bool        { return meetRows(d.cells, dst, src) }

// Transfer overwrites the temporaries n's block writes and delivers
// along the out-edges the solution executed.
func (d *localDomain) Transfer(n cfg.NodeID, in, scratch int, slots []int8) {
	d.cells.Copy(scratch, in)
	k, v := d.cells.Row(scratch)
	for _, x := range d.gens[d.gen0[n]:d.gen0[n+1]] {
		k[x.col], v[x.col] = x.kind, x.val
	}
	for i, eid := range d.g.Node(n).Out {
		if d.exec[eid] {
			slots[i] = 0
		}
	}
}

// CheckNarrow pins the narrow rows to full width: it solves constant
// propagation over g under infeasible (nil for none) on the packed
// solver and on the boxed reference without a column map, and reports
// the first node whose reachability or EnvAt environment differs, or
// the first edge whose executability does. The differential tests and
// fuzzers run it on every graph tier.
func CheckNarrow(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) error {
	r := AnalyzeMasked(g, numVars, conditional, infeasible)
	full := dataflow.Solve(g, &Problem{NumVars: numVars, Conditional: conditional, Infeasible: infeasible})
	for n, reached := range full.Reached {
		if r.Sol.Reached[n] != reached {
			return fmt.Errorf("node %d: reached=%t, full width %t", n, r.Sol.Reached[n], reached)
		}
		if !reached {
			continue
		}
		if got, want := r.EnvAt(cfg.NodeID(n)), full.In[n].(Env); !got.Equal(want) {
			return fmt.Errorf("node %d: environment %v, full width %v", n, got, want)
		}
	}
	for e, exec := range full.EdgeExecutable {
		if r.Sol.EdgeExecutable[e] != exec {
			return fmt.Errorf("edge %d: executable=%t, full width %t", e, r.Sol.EdgeExecutable[e], exec)
		}
	}
	return nil
}
