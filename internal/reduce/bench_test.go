package reduce_test

import (
	"fmt"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/profile"
	. "pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// diamondLoop generates a loop over a chain of diamonds whose legs assign
// different constants, over numVars registers. Its ten working registers
// are spread evenly across the register file, so functions generated
// with different numVars share one CFG, one instruction shape and one
// training profile and differ only in register count.
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
		g.AddEdge(prev, test) // the loop head's true leg enters the chain
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
	names := make([]string, numVars)
	for l, name := range []string{"i", "n", "one", "c", "a", "x", "s", "sq"} {
		names[reg(l)] = name
	}
	return &cfg.Func{Name: "main", VarNames: names, G: g}
}

// reduceInputs trains f and runs the pipeline up to reduction at CA 0.97.
func reduceInputs(b *testing.B, f *cfg.Func) (*trace.HPG, *constprop.Result, *bl.Profile) {
	b.Helper()
	if err := f.G.Validate(f.NumVars()); err != nil {
		b.Fatal(err)
	}
	prog := cfg.NewProgram()
	prog.Add(f)
	// Biased branches: each test takes its first leg 80% of the time.
	in := make([]ir.Value, 1024)
	seed := uint64(7)
	for k := range in {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		if seed%10 < 8 {
			in[k] = 1
		}
	}
	pp, _, err := bl.ProfileProgram(prog, interp.Options{Args: []ir.Value{300}, Input: &interp.SliceInput{Values: in}})
	if err != nil {
		b.Fatal(err)
	}
	pr := pp.Funcs[f.Name]
	a, err := automaton.New(f.G, pr.R, profile.SelectHot(pr, f.G, 0.97))
	if err != nil {
		b.Fatal(err)
	}
	h, err := trace.Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := profile.Translate(pr, f.G, h)
	if err != nil {
		b.Fatal(err)
	}
	return h, constprop.AnalyzeBoxed(h.G, f.NumVars(), true), tp
}

// BenchmarkReduce reduces one generated function at two register counts.
// ci.sh requires equal allocs/op and B/op across the two: Reduce reads
// solutions only at block inputs, so its allocations must not grow with
// the register file.
func BenchmarkReduce(b *testing.B) {
	for _, numVars := range []int{10, 1000} {
		b.Run(fmt.Sprintf("vars=%d", numVars), func(b *testing.B) {
			h, sol, tp := reduceInputs(b, diamondLoop(numVars, 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Reduce(h, sol, tp, Options{CR: 0.95}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
