package liveness_test

import (
	"fmt"
	"testing"

	"pathflow/internal/availexpr"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/ir"
	"pathflow/internal/liveness"
)

// loopChain generates a function of loops run one after another, each
// a counted loop around a diamond whose legs assign different
// constants: eight nodes and one retreating edge per loop, so the node
// count, the edge count and the loop count all grow with loops while
// the register file and the instruction shapes stay the same.
func loopChain(loops int) *cfg.Func {
	const i, n, one, c, a, x, s, nv = 0, 1, 2, 3, 4, 5, 6, 7
	instr := func(op ir.Op, dst, x, y ir.Var, k ir.Value) ir.Instr {
		return ir.Instr{Op: op, Dst: dst, A: x, B: y, K: k}
	}
	g := cfg.New("main")
	node := func(name string, kind cfg.TermKind, cond ir.Var, instrs ...ir.Instr) cfg.NodeID {
		id := g.AddNode(name)
		nd := g.Node(id)
		nd.Kind, nd.Cond, nd.Instrs = kind, cond, instrs
		return id
	}
	prev := node("init", cfg.TermJump, ir.NoVar,
		instr(ir.Arg, n, ir.NoVar, ir.NoVar, 0),
		instr(ir.Const, s, ir.NoVar, ir.NoVar, 0),
		instr(ir.Const, one, ir.NoVar, ir.NoVar, 1))
	g.AddEdge(g.Entry, prev)
	for l := 0; l < loops; l++ {
		init := node(fmt.Sprintf("init%d", l), cfg.TermJump, ir.NoVar, instr(ir.Const, i, ir.NoVar, ir.NoVar, 0))
		head := node(fmt.Sprintf("head%d", l), cfg.TermBranch, c, instr(ir.Lt, c, i, n, 0))
		test := node(fmt.Sprintf("test%d", l), cfg.TermBranch, c, instr(ir.Input, c, ir.NoVar, ir.NoVar, 0))
		yes := node(fmt.Sprintf("yes%d", l), cfg.TermJump, ir.NoVar, instr(ir.Const, a, ir.NoVar, ir.NoVar, ir.Value(l)))
		no := node(fmt.Sprintf("no%d", l), cfg.TermJump, ir.NoVar, instr(ir.Const, a, ir.NoVar, ir.NoVar, ir.Value(l+1)))
		join := node(fmt.Sprintf("join%d", l), cfg.TermJump, ir.NoVar,
			instr(ir.Add, x, a, one, 0),
			instr(ir.Add, s, s, x, 0))
		latch := node(fmt.Sprintf("latch%d", l), cfg.TermJump, ir.NoVar, instr(ir.Add, i, i, one, 0))
		exit := node(fmt.Sprintf("exit%d", l), cfg.TermJump, ir.NoVar)
		g.AddEdge(prev, init)
		g.AddEdge(init, head)
		g.AddEdge(head, test)
		g.AddEdge(head, exit)
		g.AddEdge(test, yes)
		g.AddEdge(test, no)
		g.AddEdge(yes, join)
		g.AddEdge(no, join)
		g.AddEdge(join, latch)
		g.AddEdge(latch, head)
		prev = exit
	}
	done := node("done", cfg.TermReturn, ir.NoVar)
	g.Node(done).Ret = s
	g.AddEdge(prev, done)
	g.AddEdge(done, g.Exit)
	if err := g.Validate(nv); err != nil {
		panic(err)
	}
	return &cfg.Func{Name: "main", VarNames: []string{"i", "n", "one", "c", "a", "x", "s"}, G: g}
}

// BenchmarkClientSolve runs one-shot liveness and available-expressions
// solves, guided by constant propagation as the engine runs them, on a
// generated function of about 10 and of about 1000 nodes. The clients
// keep their solver's rows as their results, so a solve allocates the
// same number of objects at both sizes; ci.sh requires equal allocs/op.
func BenchmarkClientSolve(b *testing.B) {
	for _, loops := range []int{1, 124} {
		fn := loopChain(loops)
		g, nv := fn.G, fn.NumVars()
		guide := constprop.AnalyzePacked(g, nv, true).Sol
		u := availexpr.NewUniverse(g, nv)
		b.Run(fmt.Sprintf("nodes=%d", g.NumNodes()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				liveness.AnalyzePacked(g, nv, guide)
				availexpr.AnalyzePacked(g, u, guide)
			}
		})
	}
}
