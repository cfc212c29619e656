package constprop_test

import (
	"fmt"
	"testing"

	"pathflow/internal/cfg"
	. "pathflow/internal/constprop"
	"pathflow/internal/ir"
)

// diamondLoop is internal/reduce's BenchmarkReduce shape: a loop over a
// chain of diamonds whose legs assign different constants, with its ten
// working registers spread evenly across a file of numVars registers,
// so the functions generated with different numVars share one CFG and
// one instruction shape and differ only in register count.
func diamondLoop(numVars, diamonds int) *cfg.Func {
	stride := numVars / 10
	reg := func(l int) ir.Var { return ir.Var(l * stride) }
	i, n, one, c, a, x, s := reg(0), reg(1), reg(2), reg(3), reg(4), reg(5), reg(6)
	instr := func(op ir.Op, dst, x, y ir.Var, k ir.Value) ir.Instr {
		return ir.Instr{Op: op, Dst: dst, A: x, B: y, K: k}
	}
	g := cfg.New("main")
	set := func(id cfg.NodeID, kind cfg.TermKind, cond ir.Var, instrs ...ir.Instr) {
		nd := g.Node(id)
		nd.Kind, nd.Cond, nd.Instrs = kind, cond, instrs
	}
	init := g.AddNode("init")
	set(init, cfg.TermJump, ir.NoVar,
		instr(ir.Arg, n, ir.NoVar, ir.NoVar, 0),
		instr(ir.Const, i, ir.NoVar, ir.NoVar, 0),
		instr(ir.Const, s, ir.NoVar, ir.NoVar, 0),
		instr(ir.Const, one, ir.NoVar, ir.NoVar, 1))
	head := g.AddNode("head")
	set(head, cfg.TermBranch, c, instr(ir.Lt, c, i, n, 0))
	done := g.AddNode("done")
	set(done, cfg.TermReturn, ir.NoVar)
	g.Node(done).Ret = s
	g.AddEdge(g.Entry, init)
	g.AddEdge(init, head)
	prev := head
	for d := 0; d < diamonds; d++ {
		test := g.AddNode(fmt.Sprintf("test%d", d))
		set(test, cfg.TermBranch, c, instr(ir.Input, c, ir.NoVar, ir.NoVar, 0))
		yes := g.AddNode(fmt.Sprintf("yes%d", d))
		set(yes, cfg.TermJump, ir.NoVar, instr(ir.Const, a, ir.NoVar, ir.NoVar, ir.Value(d)))
		no := g.AddNode(fmt.Sprintf("no%d", d))
		set(no, cfg.TermJump, ir.NoVar, instr(ir.Const, a, ir.NoVar, ir.NoVar, ir.Value(d+1)))
		join := g.AddNode(fmt.Sprintf("join%d", d))
		set(join, cfg.TermJump, ir.NoVar,
			instr(ir.Add, x, a, one, 0),
			instr(ir.Mul, reg(7), x, x, 0),
			instr(ir.Add, s, s, reg(7), 0))
		g.AddEdge(prev, test)
		g.AddEdge(test, yes)
		g.AddEdge(test, no)
		g.AddEdge(yes, join)
		g.AddEdge(no, join)
		prev = join
	}
	latch := g.AddNode("latch")
	set(latch, cfg.TermJump, ir.NoVar, instr(ir.Add, i, i, one, 0))
	g.AddEdge(prev, latch)
	g.AddEdge(latch, head)
	g.AddEdge(head, done)
	g.AddEdge(done, g.Exit)
	return &cfg.Func{Name: "main", VarNames: make([]string, numVars), G: g}
}

// BenchmarkSolveWidth solves one generated function at two register
// counts. The rows hold only the registers some block reads before
// writing them, the same five at both counts, so ci.sh requires equal
// allocs/op and at most 8× the B/op at 1000 registers: only the
// Transfer overlay, one cell per register, grows with the file.
func BenchmarkSolveWidth(b *testing.B) {
	for _, numVars := range []int{10, 1000} {
		b.Run(fmt.Sprintf("vars=%d", numVars), func(b *testing.B) {
			f := diamondLoop(numVars, 4)
			if err := f.G.Validate(numVars); err != nil {
				b.Fatal(err)
			}
			f.G.Columns() // built once per graph, outside the loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AnalyzePacked(f.G, numVars, true)
			}
		})
	}
}
