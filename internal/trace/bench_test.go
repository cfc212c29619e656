package trace_test

import (
	"fmt"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	. "pathflow/internal/trace"
)

// pipelineFixture builds a branchy program with a real profile, for
// benchmarking the tracing stages in isolation.
func pipelineFixture(b *testing.B) (*cfg.Func, *bl.Profile, *automaton.Automaton) {
	b.Helper()
	src := `
func main() {
	n = arg(0);
	i = 0;
	s = 0;
	while (i < n) {
		a = input() % 100;
		if (a < 80) { w = 3; } else { w = (input() % 5) + 1; }
		bq = input() % 100;
		if (bq < 70) { v = 2; } else { v = (input() % 7) + 1; }
		c = input() % 100;
		if (c < 85) { u = 5; } else { u = (input() % 9) + 1; }
		s = s + w*v + u;
		i = i + 1;
	}
	print(s);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]ir.Value, 2048)
	x := uint64(5)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0x7fffffff)
	}
	pp, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{400},
		Input: &interp.SliceInput{Values: vals},
	})
	if err != nil {
		b.Fatal(err)
	}
	f := prog.Main()
	pr := pp.Funcs[f.Name]
	hot := profile.SelectHot(pr, f.G, 0.97)
	a, err := automaton.New(f.G, pr.R, hot)
	if err != nil {
		b.Fatal(err)
	}
	return f, pr, a
}

func BenchmarkBuildHPG(b *testing.B) {
	f, _, a := pipelineFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(f, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeHPG(b *testing.B) {
	f, _, a := pipelineFixture(b)
	h, err := Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		constprop.AnalyzeBoxed(h.G, f.NumVars(), true)
	}
}

func BenchmarkReduceHPG(b *testing.B) {
	f, pr, a := pipelineFixture(b)
	h, err := Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	sol := constprop.AnalyzeBoxed(h.G, f.NumVars(), true)
	tp, err := profile.Translate(pr, f.G, h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.Reduce(h, sol, tp, reduce.Options{CR: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateProfile(b *testing.B) {
	f, pr, a := pipelineFixture(b)
	h, err := Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Translate(pr, f.G, h); err != nil {
			b.Fatal(err)
		}
	}
}

// diamondChain generates a counted loop over a chain of diamonds whose
// branches read the input stream. Every block holds at least k
// instructions, its own followed by constant loads into a scratch
// register, so functions generated with different k share one CFG and
// one training profile and differ only in block size.
func diamondChain(diamonds, k int) *cfg.Func {
	const n, c, a, s, one, i, x, t = 0, 1, 2, 3, 4, 5, 6, 7
	instr := func(op ir.Op, dst, x, y ir.Var, v ir.Value) ir.Instr {
		return ir.Instr{Op: op, Dst: dst, A: x, B: y, K: v}
	}
	g := cfg.New("main")
	block := func(name string, kind cfg.TermKind, instrs ...ir.Instr) cfg.NodeID {
		id := g.AddNode(name)
		for len(instrs) < k {
			instrs = append(instrs, instr(ir.Const, t, ir.NoVar, ir.NoVar, ir.Value(len(instrs))))
		}
		nd := g.Node(id)
		nd.Kind, nd.Instrs = kind, instrs
		if kind == cfg.TermBranch {
			nd.Cond = c
		}
		return id
	}
	init := block("init", cfg.TermJump,
		instr(ir.Arg, n, ir.NoVar, ir.NoVar, 0),
		instr(ir.Const, one, ir.NoVar, ir.NoVar, 1))
	head := block("head", cfg.TermBranch, instr(ir.Lt, c, i, n, 0))
	done := block("done", cfg.TermReturn)
	g.Node(done).Ret = s
	g.AddEdge(g.Entry, init)
	g.AddEdge(init, head)
	prev := head
	for d := 0; d < diamonds; d++ {
		test := block(fmt.Sprintf("test%d", d), cfg.TermBranch, instr(ir.Input, c, ir.NoVar, ir.NoVar, 0))
		yes := block(fmt.Sprintf("yes%d", d), cfg.TermJump, instr(ir.Const, a, ir.NoVar, ir.NoVar, ir.Value(d)))
		no := block(fmt.Sprintf("no%d", d), cfg.TermJump, instr(ir.Const, a, ir.NoVar, ir.NoVar, ir.Value(d+1)))
		join := block(fmt.Sprintf("join%d", d), cfg.TermJump,
			instr(ir.Add, x, a, one, 0),
			instr(ir.Add, s, s, x, 0))
		g.AddEdge(prev, test) // the loop head's true leg enters the chain
		g.AddEdge(test, yes)
		g.AddEdge(test, no)
		g.AddEdge(yes, join)
		g.AddEdge(no, join)
		prev = join
	}
	latch := block("latch", cfg.TermJump, instr(ir.Add, i, i, one, 0))
	g.AddEdge(prev, latch)
	g.AddEdge(latch, head)
	g.AddEdge(head, done)
	g.AddEdge(done, g.Exit)
	return &cfg.Func{Name: "main", VarNames: []string{"n", "c", "a", "s", "one", "i", "x", "t"}, G: g}
}

// BenchmarkTierBuild builds the HPG of one generated function and
// assembles its reduction, with every block at 1 and at 64
// instructions. The automaton and the partition come from the pipeline
// at 1 instruction a block; the shape is the same at 64. A tier aliases
// its original's blocks, so ci.sh requires both sizes to allocate the
// same bytes, equally often.
func BenchmarkTierBuild(b *testing.B) {
	const diamonds = 4
	base := diamondChain(diamonds, 1)
	prog := cfg.NewProgram()
	prog.Add(base)
	// Each branch is taken 7 times in 8.
	vals := make([]ir.Value, 1024)
	for i := range vals {
		if i%8 != 3 {
			vals[i] = 1
		}
	}
	pp, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{300},
		Input: &interp.SliceInput{Values: vals},
	})
	if err != nil {
		b.Fatal(err)
	}
	pr := pp.Funcs[base.Name]
	a, err := automaton.New(base.G, pr.R, profile.SelectHot(pr, base.G, 0.97))
	if err != nil {
		b.Fatal(err)
	}
	h, err := Build(base, a)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := profile.Translate(pr, base.G, h)
	if err != nil {
		b.Fatal(err)
	}
	red, err := reduce.Reduce(h, constprop.AnalyzeBoxed(h.G, base.NumVars(), true), tp, reduce.Options{CR: 0.95})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 64} {
		fn := diamondChain(diamonds, k)
		b.Run(fmt.Sprintf("instrs=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, err := Build(fn, a)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := reduce.Assemble(h, red.Class, red.Hot, red.Weights); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
